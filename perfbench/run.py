#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the libraries, the daemons and the load
process (pbload) into .bench_build/, starts the daemons a workload needs
under .bench_run/, runs the workload, and stops everything it started.

Workloads: study-fig2, serve-tell, serve-bogp-warm (see README.md).
--trace 0 measures the end-to-end metrics; --trace 1 additionally records
spans around the calls into each layer and reports the per-layer metrics.
The human-readable report goes to stdout first; the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN = os.path.join(ROOT, ".bench_run")
PAPER_FIG2 = os.path.join(ROOT, "repro_results", "fig2.csv")

WORKLOADS = ("study-fig2", "serve-tell", "serve-bogp-warm")
# Cluster start-ups per set-up; setup_s reports their median.
SETUP_REPEATS = 3
# Budget of a run after the build: it must finish (or fail) inside 180 s.
RUN_BUDGET_S = 170

END_TO_END = {
    "setup_s": "s",
    "campaign_s": "s",
    "evals_per_s": "1/s",
    "session_p50_ms": "ms",
    "ask_p50_us": "us",
    "ask_p90_us": "us",
    "tell_p50_us": "us",
    "tell_p90_us": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "harness.context_build_s": "s",
    "harness.experiment_busy_s.rs": "s",
    "harness.experiment_busy_s.rf": "s",
    "harness.experiment_busy_s.ga": "s",
    "harness.experiment_busy_s.bogp": "s",
    "harness.experiment_busy_s.botpe": "s",
    "harness.pool_idle_frac": "ratio",
    "tuner.self_s.ga": "s",
    "tuner.self_s.bogp": "s",
    "tuner.self_s.botpe": "s",
    "tuner.asktell.ask_us": "us",
    "tuner.pipeline.overlap_ratio": "ratio",
    "tuner.pipeline.inline_ratio": "ratio",
    "simgpu.measure_calls": "count",
    "simgpu.measure_ns_per_call": "ns",
    "simgpu.final_eval_s": "s",
    "simgpu.mean_cache_hit_ratio": "ratio",
    "stats.figures_s": "s",
    "service.router.ask_us": "us",
    "service.router.tell_us": "us",
    "service.server.ask_us": "us",
    "service.server.tell_us": "us",
    "service.protocol.codec_us": "us",
    "service.session_manager.tell_us": "us",
    "service.session_manager.tell_wait_us": "us",
    "service.session_wal.append_us": "us",
    "store.append_us": "us",
    "service.wal_ship.ship_tell_us": "us",
    "store.query_us": "us",
    "service.primary.cpu_ms_per_ktell": "ms/ktell",
    "service.standby.cpu_ms_per_ktell": "ms/ktell",
    "service.router.cpu_ms_per_ktell": "ms/ktell",
    "service.primary.write_bytes_per_tell": "B/tell",
    "service.standby.write_bytes_per_tell": "B/tell",
    "service.primary.write_calls_per_tell": "calls/tell",
    "service.status.duplicate_tells": "count",
    "service.status.wal_errors": "count",
    "service.status.store_errors": "count",
    "service.status.ship_failures": "count",
    "service.status.ship_reconnects": "count",
}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then build only what the benchmark runs."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        step = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    step = ["cmake", "--build", BUILD, "-j4", "--target", "pbload", "tuned", "tunelb"]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def keep_inside_checkout():
    """Temporary files of the compiler and of every child go under RUN, and
    a SIGTERM unwinds through the code that stops the daemons."""
    tmp = os.path.join(RUN, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    signal.signal(signal.SIGTERM, lambda signo, frame: sys.exit(1))


class Daemon:
    """One daemon process; its `ready port=N` line gives the port."""

    def __init__(self, argv, log_path, timeout_s=20.0):
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=self.log)
        self.port = self._await_port(timeout_s)

    def _await_port(self, timeout_s):
        deadline = time.monotonic() + timeout_s
        line = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.05)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 256)
                if not chunk:
                    break
                line += chunk
                if b"ready port=" in line and line.endswith(b"\n"):
                    return int(line.split(b"ready port=")[1].split()[0])
        raise BenchError("daemon did not start: %r" % (self.proc.args,))

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def hello(port, timeout_s=10.0):
    """Send the versioned hello and wait for the ok reply."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=2) as conn:
                conn.sendall(b'{"op":"hello","version":1,"client":"perfbench"}\n')
                reply = b""
                while not reply.endswith(b"\n"):
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    reply += chunk
                if json.loads(reply).get("ok") is True:
                    return
        except (OSError, ValueError):
            pass
        if time.monotonic() > deadline:
            raise BenchError("router on port %d never answered hello" % port)
        time.sleep(0.01)


class Cluster:
    """tunelb in front of a primary tuned (WAL and store on) shipping to a
    hot-standby tuned, all real binaries. `layer_standby` adds a standby of
    its own for the in-process layer replays of a traced run."""

    def __init__(self, tag, layer_standby=False):
        self.dir = os.path.join(RUN, tag)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.daemons = []
        tuned = os.path.join(BUILD, "repro", "service", "tuned")
        tunelb = os.path.join(BUILD, "repro", "service", "tunelb")
        d = lambda name: os.path.join(self.dir, name)
        drain = ["--drain-timeout-ms", "1000"]
        try:
            self.standby = self._spawn([tuned, "--port", "0", "--standby",
                                        "--state-dir", d("standby"),
                                        "--store-dir", d("standby-store")] + drain,
                                       "standby")
            self.primary = self._spawn([tuned, "--port", "0",
                                        "--state-dir", d("primary"),
                                        "--store-dir", d("primary-store"),
                                        "--ship-to", "127.0.0.1:%d" % self.standby.port] + drain,
                                       "primary")
            self.router = self._spawn([tunelb, "--port", "0", "--shards",
                                       "%d/%d" % (self.primary.port, self.standby.port)],
                                      "router")
            hello(self.router.port)
            self.layer_standby = None
            if layer_standby:
                self.layer_standby = self._spawn([tuned, "--port", "0", "--standby",
                                                  "--state-dir", d("layer-standby"),
                                                  "--store-dir", d("layer-standby-store")] + drain,
                                                 "layer-standby")
        except BaseException:
            self.stop()
            raise

    def _spawn(self, argv, name):
        daemon = Daemon(argv, os.path.join(self.dir, name + ".log"))
        self.daemons.append(daemon)
        return daemon

    def pids(self):
        return "%d,%d,%d" % (self.primary.proc.pid, self.standby.proc.pid, self.router.proc.pid)

    def stop(self):
        for daemon in reversed(self.daemons):
            daemon.stop()
        self.daemons = []
        shutil.rmtree(self.dir, ignore_errors=True)


def start_cluster(tag, layer_standby):
    """SETUP_REPEATS timed start-ups (spawn until the router answers the
    first hello); the last cluster is kept. Returns (cluster, median s)."""
    times = []
    for repeat in range(SETUP_REPEATS):
        start = time.monotonic()
        cluster = Cluster(tag, layer_standby and repeat == SETUP_REPEATS - 1)
        times.append(time.monotonic() - start)
        if repeat < SETUP_REPEATS - 1:
            cluster.stop()
    return cluster, statistics.median(times)


def pbload(argv, deadline):
    """Run the load process; returns its parsed result line."""
    cmd = [os.path.join(BUILD, "pbload")] + argv
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("pbload timed out: %s" % " ".join(argv))
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError("pbload failed (exit %d): %s" % (done.returncode, " ".join(argv)))
    return json.loads(lines[-1])


def serve_argv(workload, seed, seconds, trace, cluster, warmup="1"):
    argv = ["serve", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--warmup", warmup, "--trace", str(trace),
            "--router-port", str(cluster.router.port),
            "--primary-port", str(cluster.primary.port), "--pids", cluster.pids(),
            "--scratch", os.path.join(cluster.dir, "layers")]
    if cluster.layer_standby is not None:
        argv += ["--probe-standby-port", str(cluster.layer_standby.port)]
    return argv


def run_workload(workload, seed, seconds, trace, deadline):
    """Returns (main result, per-layer results of the other system's layers,
    set-up seconds measured here)."""
    traces = os.path.join(RUN, "traces")
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(traces, "%s-seed%d" % (workload, seed))
    extra = []
    if workload == "study-fig2":
        main = pbload(["study", "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(trace), "--golden", PAPER_FIG2,
                       "--trace-out", trace_out + ".jsonl"], deadline)
        if trace:
            # The service layers, which this workload does not exercise, on a
            # short serve-tell window of a cluster of their own.
            cluster, _ = start_cluster("study-layers", True)
            try:
                extra.append(pbload(serve_argv("serve-tell", seed, 2, 1, cluster, "0.5") +
                                    ["--trace-out", trace_out + "-service.jsonl"], deadline))
            finally:
                cluster.stop()
        return main, extra, 0.0
    cluster, setup_s = start_cluster(workload, trace == 1)
    try:
        main = pbload(serve_argv(workload, seed, seconds, trace, cluster) +
                      ["--trace-out", trace_out + ".jsonl"], deadline)
    finally:
        cluster.stop()
    if trace:
        # The study layers, which this workload does not exercise, on a
        # traced mini campaign.
        extra.append(pbload(["study", "--mini", "--seed", str(seed), "--trace", "1",
                             "--trace-out", trace_out + "-study.jsonl"], deadline))
    return main, extra, setup_s + main["metrics"]["load_setup_s"]["value"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        keep_inside_checkout()
        build()
        # The budget starts after the build: a first run may build for long.
        deadline = time.monotonic() + RUN_BUDGET_S
        main_result, extra, setup_s = run_workload(args.workload, args.seed, args.seconds,
                                                   args.trace, deadline)
    except BenchError as error:
        log("perfbench: %s" % error)
        return 1

    # pbload writes a value it could not measure (a NaN) as null.
    number = lambda value: float("nan") if value is None else value
    metrics = {name: {"value": number(entry["value"]), "samples": entry["samples"]}
               for name, entry in main_result["metrics"].items()}
    if args.workload != "study-fig2":
        metrics["setup_s"] = {"value": setup_s, "samples": SETUP_REPEATS}
    layers = {name: number(value) for name, value in main_result["layers"].items()}
    for result in extra:
        for name, value in result["layers"].items():
            layers.setdefault(name, number(value))
    phases = [("", main_result["phases"])] + [("layers ", r["phases"]) for r in extra]
    attempted = main_result["attempted"] + sum(r["attempted"] for r in extra)
    failed = main_result["failed"] + sum(r["failed"] for r in extra)
    chosen = PER_LAYER if args.trace else END_TO_END
    source = layers if args.trace else {k: v["value"] for k, v in metrics.items()}
    unmeasured = [name for name in chosen if not math.isfinite(source[name])]
    # A metric that could not be measured counts as a failed operation.
    attempted += len(unmeasured)
    failed += len(unmeasured)

    print("perfbench %s seed=%d seconds=%g trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    for name, unit in END_TO_END.items():
        entry = metrics[name]
        print("  %-16s %14.6g %-8s n=%d" % (name, entry["value"], unit, entry["samples"]))
    print("  %-16s %14.6g %-8s n=%d" % ("failed_ratio", failed / max(1, attempted), "ratio",
                                         attempted))
    for prefix, table in phases:
        for name, phase in table.items():
            print("  phase %s%-10s sent=%d ok=%d failed=%d" %
                  (prefix, name, phase["sent"], phase["ok"], phase["failed"]))
    for note in main_result["notes"] + [n for r in extra for n in r["notes"]]:
        print("  note: %s" % note)
    for name in unmeasured:
        print("  note: %s was not measured" % name)
    if args.trace:
        if args.workload != "study-fig2":
            print("  note: the serve window carries no spans; its layers are replayed "
                  "after it, so tracing adds nothing to its end-to-end metrics")
        for name, unit in PER_LAYER.items():
            print("  layer %-40s %14.6g %s" % (name, layers[name], unit))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": 0.0 if name in unmeasured else source[name], "unit": unit}
                    for name, unit in chosen.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
