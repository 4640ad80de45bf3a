"""Paper-workload benchmark of the DeepT reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload table1-fast --seed 1 --seconds 25 \\
        --trace 0

Workloads (see README.md next to this file for the reasons and the
per-layer predictions):

* ``table1-fast`` — DeepT-Fast max-radius searches, Table 1 rows
  M=3/6/12 x l1/l2/linf, one caller, serial ``CertScheduler``.
* ``table4-precise`` — DeepT-Precise linf searches on the M=3 model.
* ``service-mixed`` — the ``serve`` CLI with a supervised 2-worker pool,
  driven over HTTP by two closed-loop users.

Every run starts fresh program processes, with one BLAS thread each, no
``REPRO_FAULT_PLAN``, and a private temporary directory (cache, journal,
spans) under ``.perfbench-tmp/`` that is removed at the end. With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced pass over the
same inputs. Exit status: 0 when every correctness check passed, 1 when
one failed (the JSON line says ``"correct": false``), 2 when the
benchmark could not run at all (no JSON line).
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import (latency_summary, percentile,  # noqa: E402
                     radius_gmean, undegraded_share)
from tracing import layer_metrics, read_spans  # noqa: E402

WORKLOADS = ("table1-fast", "table4-precise", "service-mixed")
# Set-up is measured this many times per end-to-end run; the median is
# reported, because single imports vary by tens of percent.
SETUP_REPEATS = 5
CHILD_TIMEOUT = 150.0
SERVER_START_TIMEOUT = 60.0
SUBMIT_WAIT = 120
SERVICE_CHECK_SAMPLES = 4
SERVICE_WORKERS = 2


class BenchError(RuntimeError):
    """The benchmark itself could not run (exit 2, no result line)."""


def child_env():
    env = {name: value for name, value in os.environ.items()
           if name not in ("REPRO_FAULT_PLAN", "PYTHONPATH")}
    env.update(PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"),
                                           HERE]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONUNBUFFERED="1",
               PYTHONDONTWRITEBYTECODE="1", REPRO_NO_RECORD="1")
    return env


def run_child(argv, log_path):
    """Run ``child.py``; returns (seconds to its ready event, events)."""
    command = [sys.executable, os.path.join(HERE, "child.py")] + argv
    with open(log_path, "w") as log:
        start = time.perf_counter()
        process = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                   stdout=subprocess.PIPE, stderr=log,
                                   text=True)
        watchdog = threading.Timer(CHILD_TIMEOUT, process.kill)
        watchdog.start()
        ready, events = None, {}
        try:
            for line in process.stdout:
                if not line.startswith("@perfbench "):
                    continue
                event = json.loads(line[len("@perfbench "):])
                if event["event"] == "ready":
                    ready = time.perf_counter() - start
                events[event["event"]] = event
            code = process.wait()
        finally:
            watchdog.cancel()
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
    if code != 0 or ready is None:
        with open(log_path) as log:
            tail = log.read()[-2000:]
        raise BenchError(f"child {argv[0]} exited {code}:\n{tail}")
    return ready, events


# ------------------------------------------------------------ offline runs

def offline_run(args, tmp):
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    log = os.path.join(tmp, "child.log")
    if args.trace:
        _, plain = run_child(["run", "--check"] + base, log)
        _, traced = run_child(["run", "--trace"] + base, log)
        violations = plain["check"]["violations"]
        if radii(traced["result"]) != radii(plain["result"]):
            violations.append("traced radii differ from untraced radii")
        summary = offline_summary(plain["result"])
        layers = dict(traced["result"]["layers"])
        layers.update(idle_service_layers())
        layers["trace.overhead_share"] = \
            summary["radii_per_s"] / \
            offline_summary(traced["result"])["radii_per_s"] - 1.0
        return summary["attempted"], summary["failed"], violations, layers
    setups, peaks = [], []
    for _ in range(SETUP_REPEATS - 1):
        seconds, events = run_child(["setup"] + base, log)
        setups.append(seconds)
        peaks.append(events["ready"]["peak_rss_mb"])
    seconds, events = run_child(["run", "--check"] + base, log)
    setups.append(seconds)
    summary = offline_summary(events["result"])
    metrics = {key: summary[key] for key in
               ("radii_per_s", "radius_gmean", "undegraded_share")}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = max(peaks + [events["result"]["peak_rss_mb"]])
    return summary["attempted"], summary["failed"], \
        events["check"]["violations"], metrics


def radii(result):
    return [answer["radius"] for answer in result["answers"]]


def offline_summary(result):
    answers = result["answers"]
    done = [dict(a, status="done") for a in answers
            if math.isfinite(a["radius"]) and a["radius"] > 0]
    return {"attempted": len(answers), "failed": len(answers) - len(done),
            "radii_per_s": len(done) / result["cpu_seconds"],
            "radius_gmean": radius_gmean([a["radius"] for a in done])
            if done else 0.0,
            "undegraded_share": undegraded_share(done, len(answers))}


def idle_service_layers():
    """Pool, result-memory and HTTP metrics of a run without a service."""
    names = ("scheduler.leases", "scheduler.heartbeats",
             "scheduler.requeued_leases", "scheduler.cache_hit_share",
             "service.latency_p50_s", "service.latency_p90_s",
             "service.wait_p50_s", "service.hit_rtt_p50_s",
             "service.reuse_share", "service.executed_queries",
             "service.coalesced_queries", "service.rejected",
             "service.degraded")
    return dict.fromkeys(names, 0)


# ------------------------------------------------------------ service runs

def child_pids(parent):
    """PIDs whose parent is ``parent`` (from /proc)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == parent and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def peak_rss_of(pid):
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def http_json(port, method, path):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(method, path)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        connection.close()


class Server:
    """One ``serve`` process with a supervised pool and fresh state."""

    def __init__(self, directory, traced):
        os.makedirs(directory)
        self.directory = directory
        options = ["serve", "--supervised", "--workers",
                   str(SERVICE_WORKERS), "--port", "0", "--n-layers", "3",
                   "--cache-dir", os.path.join(directory, "cache"),
                   "--journal", os.path.join(directory, "journal.jsonl")]
        if traced:
            command = [sys.executable, os.path.join(HERE, "serve.py"),
                       directory] + options
        else:
            command = [sys.executable, "-m", "repro.experiments"] + options
        self.log = os.path.join(directory, "server.log")
        self.workers = []
        start = time.perf_counter()
        with open(self.log, "w") as log:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=child_env(), stdout=log,
                stderr=subprocess.STDOUT)
        try:
            self.port = self._wait_for_port(start)
            status, health = http_json(self.port, "GET", "/health")
            if status != 200 or health.get("status") != "ok":
                raise BenchError(f"/health answered {status} {health}")
            while len(self.workers) < SERVICE_WORKERS:
                self._check_deadline(start, "pool workers")
                self.workers = child_pids(self.process.pid)
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    def _check_deadline(self, start, what):
        if self.process.poll() is not None:
            with open(self.log) as log:
                raise BenchError(f"server exited before {what}:\n"
                                 f"{log.read()[-2000:]}")
        if time.perf_counter() - start > SERVER_START_TIMEOUT:
            raise BenchError(f"server gave no {what} within "
                             f"{SERVER_START_TIMEOUT}s")
        time.sleep(0.005)

    def _wait_for_port(self, start):
        marker = "on http://127.0.0.1:"
        while True:
            with open(self.log) as log:
                for line in log:
                    if line.startswith("serving ") and marker in line:
                        return int(line.split(marker)[1].split()[0])
            self._check_deadline(start, "listening port")

    def peak_rss_mb(self):
        return max(peak_rss_of(pid)
                   for pid in [self.process.pid] + self.workers)

    def stop(self):
        """SIGTERM (graceful drain), then wait for server and workers."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        deadline = time.monotonic() + 10
        for pid in self.workers:
            while alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                time.sleep(0.01)


async def submit(port, payload):
    """``POST /submit?wait=`` one query and wait for its answer.

    The load generator is the benchmark's own, not ``repro.service``'s
    client, so a change to the program never changes the load.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = json.dumps(payload).encode()
        writer.write((f"POST /submit?wait={SUBMIT_WAIT} HTTP/1.1\r\n"
                      f"Host: 127.0.0.1\r\n"
                      f"Content-Type: application/json\r\n"
                      f"Content-Length: {len(body)}\r\n"
                      f"Connection: close\r\n\r\n").encode() + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, data = raw.partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), json.loads(data or b"null")


async def closed_loop(port, users):
    """Each user sends its next submission once the last one answered."""
    records = [[] for _ in users]

    async def user(items, out):
        for item in items:
            start = time.perf_counter()
            try:
                _, answer = await submit(port, item["payload"])
            except (OSError, ValueError) as error:
                answer = {"status": "error", "error": repr(error)}
            out.append({"latency": time.perf_counter() - start,
                        "repeat": item["repeat"],
                        "payload": item["payload"], **answer})

    start = time.perf_counter()
    await asyncio.gather(*(user(items, out)
                           for items, out in zip(users, records)))
    return records, time.perf_counter() - start


def service_pass(tmp, name, users, warmup, traced):
    server = Server(os.path.join(tmp, name), traced)
    try:
        status, warm = asyncio.run(submit(server.port, warmup))
        if status != 200 or warm.get("status") != "done":
            raise BenchError(f"warm-up submission answered {warm}")
        _, before = http_json(server.port, "GET", "/metrics")
        records, elapsed = asyncio.run(closed_loop(server.port, users))
        _, after = http_json(server.port, "GET", "/metrics")
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    spans = [span for span in read_spans(server.directory)
             if span["request"] != warm["key"]] if traced else None
    return {"records": records, "elapsed": elapsed, "before": before,
            "after": after, "peak_rss_mb": peak, "spans": spans,
            "setup_s": server.setup_s}


def service_checks(records, seed, tmp, log):
    """Every answer done and undegraded; repeats identical; recompute."""
    violations = []
    for user in records:
        by_key = {}
        for record in user:
            if record.get("status") != "done":
                violations.append(f"submission not answered: {record}")
                continue
            if lowered(record):
                violations.append(f"degraded answer {record['key'][:12]}: "
                                  f"rung {record['qos_rung']}")
            if not (math.isfinite(record["radius"])
                    and record["radius"] > 0):
                violations.append(f"radius {record['radius']!r}")
            first = by_key.setdefault(record["key"], record)
            if first["radius"] != record["radius"]:
                violations.append(f"repeated key {record['key'][:12]} "
                                  f"answered {first['radius']!r} then "
                                  f"{record['radius']!r}")
    fresh = [r for user in records for r in user
             if r.get("status") == "done" and not r["repeat"]]
    sample = random.Random(seed).sample(
        fresh, min(SERVICE_CHECK_SAMPLES, len(fresh)))
    path = os.path.join(tmp, "answers.json")
    with open(path, "w") as handle:
        json.dump([{"payload": r["payload"], "key": r["key"],
                    "radius": r["radius"]} for r in sample], handle)
    _, events = run_child(["check", "--workload", "service-mixed",
                           "--seed", str(seed), "--seconds", "0",
                           "--answers", path], log)
    return violations + events["check"]["violations"]


def lowered(record):
    """Degraded, or answered at a looser rung than the submitted one."""
    return record["degraded"] or record["qos_rung"] != "fast"


def service_summary(run):
    answers = [r for user in run["records"] for r in user]
    done = [r for r in answers if r.get("status") == "done"]
    metrics = {"radii_per_s": len(done) / run["elapsed"],
               "radius_gmean": radius_gmean([r["radius"] for r in done])
               if done else 0.0,
               "undegraded_share": undegraded_share(
                   [dict(r, degraded=lowered(r)) for r in done],
                   len(answers))}
    if done:
        metrics.update({"service." + name: value for name, value in
                        latency_summary([r["latency"] for r in done]).items()})
    return len(answers), len(answers) - len(done), metrics


def service_layers(run):
    answers = [r for user in run["records"] for r in user]
    done = [r for r in answers if r.get("status") == "done"]
    counters = {key: run["after"]["counters"].get(key, 0)
                - run["before"]["counters"].get(key, 0)
                for key in run["after"]["counters"]}
    pool = {key: run["after"]["supervisor"][key]
            - run["before"]["supervisor"][key]
            for key in run["after"]["supervisor"]}
    waits = [r["latency"] - r["seconds"] for r in done if not r["repeat"]]
    hits = [r["latency"] for r in done if r["repeat"]]
    lookups = counters.get("cache_hits", 0) + counters.get("cache_misses",
                                                           0)
    layers = layer_metrics(run["spans"])
    layers.update({
        "scheduler.leases": pool["leases"],
        "scheduler.heartbeats": pool["heartbeats"],
        "scheduler.requeued_leases": pool["requeued_leases"],
        "scheduler.cache_hit_share":
            counters.get("cache_hits", 0) / lookups if lookups else 0.0,
        "service.wait_p50_s": percentile(waits, 50) if waits else 0.0,
        "service.hit_rtt_p50_s": percentile(hits, 50) if hits else 0.0,
        "service.reuse_share": sum(counters.get(key, 0) for key in
                                   ("result_hits", "dedup_hits",
                                    "cache_hits"))
        / max(1, counters.get("submitted", 0)),
        "service.executed_queries": counters.get("executed_queries", 0),
        "service.coalesced_queries": counters.get("coalesced_queries", 0),
        "service.rejected": sum(value for key, value in counters.items()
                                if key.startswith("rejected_")),
        "service.degraded": sum(1 for r in done if lowered(r)),
    })
    return layers


def service_run(args, tmp):
    log = os.path.join(tmp, "child.log")
    _, events = run_child(["inputs", "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds)], log)
    users, warmup = events["inputs"]["users"], events["inputs"]["warmup"]
    if args.trace:
        plain = service_pass(tmp, "plain", users, warmup, traced=False)
        traced = service_pass(tmp, "traced", users, warmup, traced=True)
        violations = service_checks(plain["records"], args.seed, tmp, log)
        if [[r.get("radius") for r in user] for user in plain["records"]] \
                != [[r.get("radius") for r in user]
                    for user in traced["records"]]:
            violations.append("traced radii differ from untraced radii")
        attempted, failed, metrics = service_summary(plain)
        # Client latency is a user-visible figure: take it untraced.
        layers = service_layers(traced)
        layers.update({name: value for name, value in metrics.items()
                       if name.startswith("service.latency")})
        layers["trace.overhead_share"] = \
            metrics["radii_per_s"] / \
            service_summary(traced)[2]["radii_per_s"] - 1.0
        return attempted, failed, violations, layers
    setups = []
    for index in range(SETUP_REPEATS - 1):
        server = Server(os.path.join(tmp, f"setup-{index}"), traced=False)
        server.stop()
        setups.append(server.setup_s)
    run = service_pass(tmp, "plain", users, warmup, traced=False)
    setups.append(run["setup_s"])
    violations = service_checks(run["records"], args.seed, tmp, log)
    attempted, failed, metrics = service_summary(run)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = run["peak_rss_mb"]
    return attempted, failed, violations, metrics


# --------------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise BenchError(f"no program under {ROOT}/src/repro")
        tmp_root = os.path.join(ROOT, ".perfbench-tmp")
        os.makedirs(tmp_root, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
        try:
            runner = service_run if args.workload == "service-mixed" \
                else offline_run
            attempted, failed, violations, values = runner(args, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                os.rmdir(tmp_root)
            except OSError:
                pass
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    print(f"perfbench: {args.workload} seed {args.seed}: {attempted} "
          f"attempted, {attempted - failed} answered, {failed} failed",
          file=sys.stderr)
    for entry in wanted:
        if entry["name"] in values:
            metrics[entry["name"]] = {"value": values[entry["name"]],
                                      "unit": entry["unit"]}
            print(f"  {entry['name']} = {values[entry['name']]:.6g} "
                  f"{entry['unit']}", file=sys.stderr)
        else:
            print(f"perfbench: {entry['name']} not measured in this run",
                  file=sys.stderr)
    for violation in violations:
        print(f"perfbench: check failed: {violation}", file=sys.stderr)
    print(json.dumps({"correct": not violations, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
