"""Command-line entry point: regenerate paper tables.

Usage::

    python -m repro.experiments                    # run everything (slow)
    python -m repro.experiments 1 4 13             # run selected tables
    python -m repro.experiments figure4            # the Figure 4 data
    python -m repro.experiments 1 --workers 4      # parallel radius queries
                                                   # (supervised pool)
    python -m repro.experiments 1 --cache          # memoize completed
                                                   # queries in .cert_cache
    python -m repro.experiments 1 --resume         # resume a crashed run
                                                   # from .cert_journal.jsonl
    python -m repro.experiments 1 --trace-dir T/   # per-op certification
                                                   # trace, one JSONL per
                                                   # table, diffable with
                                                   # python -m repro.trace
    python -m repro.experiments report --check     # join BENCH_*.json into
                                                   # REPORT.md; exit 1 on
                                                   # any regression gate
    python -m repro.experiments serve --port 8100  # long-running asyncio
                                                   # certification service
                                                   # (see README "Serving
                                                   # quick-start")

``--workers N`` fans the certification queries of every radius report
across N supervised worker processes (N=0 keeps the classic serial path);
the certified radii are bitwise identical either way. ``--cache`` (or
``--cache-dir PATH``) memoizes completed queries on disk keyed by model
weights, corpus fingerprint and query config, so re-runs and extended
sweeps only pay for new queries. ``--journal PATH`` appends every
completed query outcome to a crash-safe fsync'd JSONL journal as the run
progresses; ``--resume`` replays that journal first and recomputes only
the queries it is missing, producing radii identical to an uninterrupted
run.
"""

from __future__ import annotations

import argparse
import os

from . import tables

_RUNNERS = {
    "1": tables.run_table1, "2": tables.run_table2, "3": tables.run_table3,
    "4": tables.run_table4, "5": tables.run_table5, "6": tables.run_table6,
    "7": tables.run_table7, "8": tables.run_table8, "9": tables.run_table9,
    "10": tables.run_table10, "11": tables.run_table11,
    "12": tables.run_table12, "13": tables.run_table13,
    "14": tables.run_table14, "figure4": tables.run_figure4,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables at the repro scale.")
    parser.add_argument(
        "experiments", nargs="*", metavar="TABLE",
        help=f"tables to run (default: all); choose from "
             f"{sorted(_RUNNERS)}, 'report' to join benchmark "
             f"results into REPORT.md, or 'serve' to start the "
             f"certification service")
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="certification-query worker processes on the supervised pool "
             "(heartbeats, requeue-on-death, poison quarantine, graceful "
             "SIGTERM drain); serve runs up to N queries at once on them "
             "(0 = serial in-process, default)")
    # Accepted for old command lines; --workers N alone selects the pool.
    parser.add_argument("--supervised", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="graceful-drain deadline after SIGTERM (or POST /drain): "
             "in-flight work gets this long to finish before being left "
             "for --resume (default 30)")
    parser.add_argument(
        "--cache", action="store_true",
        help="memoize completed queries in the default .cert_cache dir")
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="memoize completed queries in PATH (implies --cache)")
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append completed query outcomes to a crash-safe JSONL "
             "journal at PATH (default when resuming: .cert_journal.jsonl)")
    parser.add_argument(
        "--resume", action="store_true",
        help="replay the journal and recompute only missing entries")
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="record a certification trace (one span per abstract-"
             "transformer application) to DIR/<table>.jsonl (serve: "
             "DIR/serve.jsonl); compare runs with `python -m repro.trace "
             "diff`")
    parser.add_argument(
        "--check", action="store_true",
        help="(report) exit nonzero when a regression gate fails")
    parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="(serve) bind address (default 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=8100, metavar="PORT",
        help="(serve) listen port (default 8100; 0 picks a free port)")
    parser.add_argument(
        "--preset", default="sst-small", metavar="NAME",
        help="(serve) corpus/model preset to train or load and serve")
    parser.add_argument(
        "--n-layers", type=int, default=3, metavar="N",
        help="(serve) transformer depth of the served model")
    parser.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="(report) directory of BENCH_*.json files "
             "(default: benchmarks/results)")
    parser.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="(report) markdown output path (default: REPORT.md)")
    return parser


def _serve(args):
    """Train-or-load the preset model and serve it until interrupted.

    SIGTERM triggers a graceful drain: new submissions get a typed 503
    while every accepted waiter resolves under ``--drain-timeout``; the
    process then exits 0 (journaled completions survive into a
    ``--resume`` restart).
    """
    import asyncio
    import signal

    from ..scheduler import default_cache_dir
    from ..service import CertService, ServiceConfig
    from ..trace import TRACER
    from .harness import get_transformer

    print(f"training or loading model preset={args.preset} "
          f"n_layers={args.n_layers} ...")
    model, _, accuracy = get_transformer(args.preset,
                                         n_layers=args.n_layers)
    cache_dir = args.cache_dir or (default_cache_dir() if args.cache
                                   else None)
    journal_path = args.journal
    if args.resume and not journal_path:
        from ..scheduler import default_journal_path
        journal_path = default_journal_path()
    trace_path = None
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        trace_path = os.path.join(args.trace_dir, "serve.jsonl")
        TRACER.enable()  # before the fleet forks: workers inherit it
    config = ServiceConfig(workers=args.workers,
                           drain_timeout=args.drain_timeout)
    service = CertService(model, config=config, cache_dir=cache_dir,
                          journal_path=journal_path, resume=args.resume,
                          trace_path=trace_path)

    async def run():
        port = await service.start(args.host, args.port)
        loop = asyncio.get_running_loop()
        sigterm = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, sigterm.set)
        except (NotImplementedError, RuntimeError):
            pass
        mode = f"supervised workers={config.workers}" \
            if config.workers else "single executor thread"
        print(f"serving model_hash={service.model_hash} "
              f"(test accuracy {accuracy:.2f}) on "
              f"http://{args.host}:{port} [{mode}] — POST /submit, "
              f"POST /drain, GET /health, GET /metrics, "
              f"GET /result/<key>")
        serve_task = asyncio.ensure_future(service.serve_forever())
        drain_task = asyncio.ensure_future(sigterm.wait())
        try:
            await asyncio.wait({serve_task, drain_task},
                               return_when=asyncio.FIRST_COMPLETED)
            if sigterm.is_set():
                print("SIGTERM: draining "
                      f"(deadline {args.drain_timeout}s) ...")
                report = await service.drain("SIGTERM")
                print(f"drained in {report['drain_seconds']}s "
                      f"({report.get('timed_out', 0)} timed out, "
                      f"{report.get('results_held', 0)} results held)")
        finally:
            for task in (serve_task, drain_task):
                task.cancel()
            await service.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("service stopped")
    return 0


def _drain_on_sigterm(scheduler, drain_timeout):
    """SIGTERM handler for a ``--workers N`` run.

    During a pooled run SIGTERM drains it instead of killing it: the
    in-flight leases finish (journaled), the rest is left for a --resume
    restart, and the process exits 0. At any other time (training, a
    table without radius queries, the serial fallback) it exits at once,
    closing the fleet on the way out.
    """
    def handler(signum, frame):
        if not scheduler.pooled_run_active:
            raise SystemExit(128 + signum)
        scheduler.request_drain(drain_timeout)
    return handler


def main(argv=None):
    """Run the selected experiment runners; returns a process exit code."""
    args = _build_parser().parse_args(argv)

    if args.experiments and args.experiments[0] == "serve":
        if len(args.experiments) > 1:
            print("serve takes no table arguments")
            return 1
        return _serve(args)

    if args.experiments and args.experiments[0] == "report":
        if len(args.experiments) > 1:
            print("report takes no table arguments")
            return 1
        from .report import run_report
        return run_report(results_dir=args.results_dir,
                          out=args.report_out, check=args.check,
                          trace_dir=args.trace_dir,
                          journal_path=args.journal)

    selected = args.experiments or sorted(_RUNNERS,
                                          key=lambda k: (len(k), k))
    unknown = [key for key in selected if key not in _RUNNERS]
    if unknown:
        print(f"unknown experiments: {unknown}; "
              f"choose from {sorted(_RUNNERS)}")
        return 1

    from ..scheduler import DrainedRun, configure, default_cache_dir
    cache_dir = args.cache_dir or (default_cache_dir() if args.cache
                                   else None)
    scheduler = configure(workers=args.workers, cache_dir=cache_dir,
                          journal_path=args.journal, resume=args.resume,
                          drain_timeout=args.drain_timeout)
    if args.workers > 0:
        import signal
        try:
            signal.signal(signal.SIGTERM, _drain_on_sigterm(
                scheduler, args.drain_timeout))
        except (ValueError, OSError):
            pass  # not the main thread / unsupported platform
    verbose = bool(args.workers or cache_dir or scheduler.journal)
    if verbose:
        journal_path = scheduler.journal.path if scheduler.journal \
            else "off"
        print(f"scheduler: workers={args.workers}, "
              f"cache={cache_dir or 'off'}, journal={journal_path}"
              f"{' (resume)' if args.resume else ''}")

    if args.trace_dir:
        from ..trace import TRACER, write_jsonl
        os.makedirs(args.trace_dir, exist_ok=True)
        TRACER.enable()

    try:
        for key in selected:
            if args.trace_dir:
                TRACER.reset()
            _RUNNERS[key]()
            if args.trace_dir:
                path = os.path.join(args.trace_dir, f"{key}.jsonl")
                write_jsonl(TRACER.snapshot(), path)
                print(f"[trace] {len(TRACER.spans)} spans -> {path}")
            if scheduler.last_stats and verbose:
                stats = scheduler.last_stats
                print(f"[scheduler] last report: {stats['queries']} "
                      f"queries, {stats['journal_hits']} journal hits, "
                      f"{stats['cache_hits']} cache hits, "
                      f"{stats['retries']} retries, "
                      f"{stats['fallbacks']} fallbacks, "
                      f"{stats['degraded']} degraded")
    except DrainedRun as drained:
        print(f"[scheduler] drained: {len(drained.completed)} completed "
              f"(journaled), {len(drained.remaining)} left for --resume")
        return 0
    finally:
        if args.workers > 0:
            scheduler.close()
        if args.trace_dir:
            TRACER.disable()
            TRACER.reset()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
