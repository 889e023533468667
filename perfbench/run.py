#!/usr/bin/env python3
"""SACHa attestation-service benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload v6_socket --seed 1 --seconds 30 --trace 0

Builds the service from the checkout's sources into .bench_build/, sets the
workload up several times (the median is setup_s), runs a closed loop for a
warm-up and then a measured window of --seconds, checks every verdict and
MAC, and prints one JSON object as the last line of stdout: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import perflib  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")

# Closed loops with a fixed number of connections; see README.md for why
# each workload exists and which layers it stresses.
# 8 connections per load thread keep the attestd loop busy: with 2 it
# idled between 29-command sessions and each wake-up exposed the run to
# host steal (loop wake-ups per attestation 0.45-1.26 against 0.07-0.11,
# throughput spread 12% against 1% over three paired runs).
WORKLOADS = {
    "v6_socket": {"kind": "socket", "server": "attestd", "device": "virtex6",
                  "threads": 2, "conns": 1, "batch": 1, "warmup": 1,
                  "setups": 3, "tamper_period": 16,
                  "traced": {"sessions": 4, "group": 2, "warmup": 2}},
    "small_socket": {"kind": "socket", "server": "attestd", "device": "small",
                     "threads": 2, "conns": 8, "batch": 64, "warmup": 256,
                     "setups": 9, "tamper_period": 16, "coord_layers": True,
                     "traced": {"sessions": 2048, "group": 4, "warmup": 64}},
    "v6_replay": {"kind": "replay", "device": "virtex6", "setups": 3,
                  "traced": {"sessions": 16}},
}
# The shard front door (src/shard/) is measured per layer only: with
# --trace 1, small_socket also runs its load through attest_coord. As an
# end-to-end workload it was too noisy for any allowed bound (throughput
# spread 0.17-0.42 between sets of runs), so the coord.*/shard.* layers
# ride on small_socket's traced run.
SHARDED = dict(WORKLOADS["small_socket"], server="coord", setups=1)
COORD_LAYERS = ("coord.cpu_ms_per_att", "shard.cpu_ms_per_att",
                "coord.redirects_per_att")

END_TO_END = ("att_per_s", "latency_p50_ms", "server_cpu_ms_per_att",
              "setup_s", "rss_peak_mb")

# Per-layer metric -> unit. Layers a workload does not run report 0.
PER_LAYER = {
    "attestd.loop_cpu_ms_per_att": "ms",
    "attestd.loop_sys_share": "ratio",
    "attestd.loop_wakeups_per_att": "count",
    "attestd.verify_cpu_ms_per_att": "ms",
    "attestd.verify_wakeups_per_att": "count",
    "attestd.session_ms_p50": "ms",
    "attestd.transport_ms_per_att": "ms",
    "net.bytes_tx_per_att": "bytes",
    "net.bytes_rx_per_att": "bytes",
    "verify.batch_occupancy_mean": "streams",
    "load.latency_tail_ms": "ms",
    "load.client_cpu_ms_per_att": "ms",
    "load.headroom": "ratio",
    "coord.cpu_ms_per_att": "ms",
    "shard.cpu_ms_per_att": "ms",
    "coord.redirects_per_att": "count",
    "bitstream.model_build_ms": "ms",
    "provision.verifier_for_ms": "ms",
    "prover.boot_ms": "ms",
    "prover.handle_ms_per_att": "ms",
    "session.cmdgen_ms_per_att": "ms",
    "session.commands_per_att": "count",
    "wire.encode_ms_per_att": "ms",
    "wire.decode_ms_per_att": "ms",
    "verify.absorb_ms_per_att": "ms",
    "verify.finish_ms_per_att": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "server.rss_growth_kb_per_att": "kB",
    "host.steal_ticks": "ticks",
}
E2E_UNITS = {"att_per_s": "1/s", "latency_p50_ms": "ms",
             "server_cpu_ms_per_att": "ms", "setup_s": "s", "rss_peak_mb": "MB"}

# Server-side layers of the traced run; what the server spends beyond them
# is attributed to the transport (attestd.transport_ms_per_att).
SERVER_LAYERS = ("provision.verifier_for", "session.cmdgen", "wire.decode",
                 "verify.absorb", "verify.finish")

# The replay set's size (kReplayTranscripts in native/inproc.hpp); the
# captures count as the run's set-up sessions.
REPLAY_TRANSCRIPTS = 4

PROCESS_TIMEOUT = 120
# The window is cut into this many sub-windows; throughput and CPU cost are
# their medians, so a burst of host noise moves one sub-window, not the run.
SUBWINDOWS = 10


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# -- build -------------------------------------------------------------------

def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no SACHa sources next to perfbench/ (expected %s)"
                         % os.path.join(ROOT, "src"))
    os.makedirs(RUN_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(ROOT, ".bench_build", "build.log"), "a") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=out) != 0:
                raise BenchError("build failed: %s (see .bench_build/build.log)"
                                 % " ".join(step))


def binary(name):
    return os.path.join(BUILD_DIR, name)


# -- processes ---------------------------------------------------------------

def cpu_split():
    """(server CPUs, load-generator CPUs): the halves of this process's
    affinity set, so the load generator runs on cores of its own; None,
    None (no pinning) on hosts with fewer than 4 CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return None, None
    half = len(cpus) // 2
    return cpus[:half], cpus[half:]


def pin(cpus):
    if not cpus:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


SERVER_CPUS, LOAD_CPUS = cpu_split()

# Each vCPU of a shared host drifts between two speeds about 1.6x apart, in
# phases of 5-15 s that differ from vCPU to vCPU (spin loops pinned to each
# vCPU show it). A busy thread that stays on one vCPU rides that vCPU's
# phase, and a loop-bound run's throughput with it. So during the window
# the busy threads are pinned to one vCPU each and moved to the next every
# ROTATE_S: every sub-window then runs at the mean speed of all vCPUs.
ROTATE_CPUS = sorted(os.sched_getaffinity(0)) if SERVER_CPUS else []
ROTATE_S = 0.25


def rotate(tids, step):
    """Pins each busy thread to its vCPU of rotation step `step`."""
    for tid, cpu in zip(tids, perflib.rotation(ROTATE_CPUS, len(tids), step)):
        try:
            os.sched_setaffinity(tid, [cpu])
        except OSError:
            pass  # the thread has exited


class Proc:
    """A child with stdin as its stop handle and stdout read line by line
    on a thread (so a chatty child never blocks on a full pipe)."""

    live = []

    def __init__(self, argv, log_name, env=None, cpus=None):
        self.log = open(os.path.join(RUN_DIR, log_name), "w")
        self.popen = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log, env=env, cwd=RUN_DIR, text=True,
            preexec_fn=pin(cpus))
        Proc.live.append(self)
        self.lines = []
        self.cond = threading.Condition()
        self.eof = False
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    @property
    def pid(self):
        return self.popen.pid

    def _read(self):
        for line in self.popen.stdout:
            with self.cond:
                self.lines.append(line.rstrip("\n"))
                self.cond.notify_all()
        with self.cond:
            self.eof = True
            self.cond.notify_all()

    def wait_line(self, prefix, timeout=PROCESS_TIMEOUT):
        """The first stdout line containing `prefix`."""
        deadline = time.monotonic() + timeout
        with self.cond:
            while True:
                for line in self.lines:
                    if prefix in line:
                        return line
                if self.eof:
                    raise BenchError("%s exited (%s) before printing '%s'"
                                     % (os.path.basename(self.popen.args[0]),
                                        self.popen.poll(), prefix))
                left = deadline - time.monotonic()
                if left <= 0:
                    raise BenchError("timed out waiting for '%s'" % prefix)
                self.cond.wait(left)

    def stop(self, timeout=PROCESS_TIMEOUT):
        """Closes stdin (the stop handle) and waits for exit and EOF."""
        try:
            self.popen.stdin.close()
        except OSError:
            pass
        try:
            code = self.popen.wait(timeout)
        except subprocess.TimeoutExpired:
            self.popen.kill()
            self.popen.wait()
            raise BenchError("%s did not stop" % self.popen.args[0])
        self.reader.join(timeout)
        self.log.close()
        Proc.live.remove(self)
        return code

    @classmethod
    def kill_all(cls):
        """Error path: close every stop handle (attest_coord reaps its
        shards on the way out), then kill what is still running."""
        for proc in list(cls.live):
            try:
                proc.popen.stdin.close()
            except OSError:
                pass
        for proc in list(cls.live):
            try:
                proc.popen.wait(10)
            except subprocess.TimeoutExpired:
                proc.popen.kill()
                proc.popen.wait()
            proc.log.close()
        cls.live.clear()


def run_once(argv, timeout=PROCESS_TIMEOUT, cpus=None):
    done = subprocess.run(argv, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, cwd=RUN_DIR,
                          preexec_fn=pin(cpus))
    return done.returncode, done.stdout, done.stderr


def server_env():
    env = dict(os.environ)
    env["SACHA_OBS_SAMPLE"] = "0"  # tracing off; counters stay on
    return env


def start_server(spec, index):
    if spec["server"] == "attestd":
        proc = Proc([binary("attestd"), "--pool", "1", "--trace-sample", "0"],
                    "attestd.%d.log" % index, env=server_env(),
                    cpus=SERVER_CPUS)
        line = proc.wait_line("listening on")
        port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        return proc, port, [port]
    proc = Proc([binary("attest_coord"), "--shards", "2", "--shard-pool", "1"],
                "attest_coord.%d.log" % index, env=server_env(),
                cpus=SERVER_CPUS)
    line = proc.wait_line("listening on")
    port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
    shard_ports = [int(p) for p in
                   line.split("shards:")[1].strip(" )").split()]
    return proc, port, shard_ports


# -- one socket run ----------------------------------------------------------

def load_argv(spec, port, seed):
    return [binary("perfbench_native"), "load",
            "--connect", "127.0.0.1:%d" % port, "--device", spec["device"],
            "--seed", str(seed), "--tamper-period", str(spec["tamper_period"])]


def scrape_all(ports):
    merged = {}
    for port in ports:
        for key, value in perflib.parse_prometheus(perflib.scrape(port)).items():
            merged[key] = merged.get(key, 0.0) + value
    return merged


def server_pids(spec, proc):
    """(front pid or None, attestd-role pids) of the running server."""
    if spec["server"] == "attestd":
        return None, [proc.pid]
    return proc.pid, perflib.children_of(proc.pid)


def run_socket(spec, seed, seconds, trace):
    setups = []
    probes = 0
    server = None
    for k in range(spec["setups"]):
        t0 = time.monotonic()
        server, port, shard_ports = start_server(spec, k)
        code, _, err = run_once(load_argv(spec, port, seed) + ["--once"],
                                cpus=LOAD_CPUS)
        setups.append(time.monotonic() - t0)
        probes += 1
        if code != 0:
            raise BenchError("set-up probe failed: %s" % err.strip())
        if k + 1 < spec["setups"]:
            server.stop()

    front_pid, attestd_pids = server_pids(spec, server)
    load = Proc(load_argv(spec, port, seed) + [
        "--threads", str(spec["threads"]), "--conns", str(spec["conns"]),
        "--batch", str(spec["batch"]), "--warmup", str(spec["warmup"])],
        "load.log", cpus=LOAD_CPUS)
    load.wait_line("warm")
    busy = perflib.first_threads(perflib.snapshot_process(load.pid), load.pid,
                                 spec["threads"])
    for pid in attestd_pids:
        loop_tid, workers = perflib.thread_roles(
            perflib.snapshot_process(pid), pid)
        busy += [loop_tid] + workers

    def snapshot():
        return {
            "t": time.monotonic_ns(),
            "servers": {pid: perflib.snapshot_process(pid)
                        for pid in attestd_pids},
            "front": (perflib.snapshot_process(front_pid)
                      if front_pid else None),
            "load": perflib.snapshot_process(load.pid),
            "metrics": scrape_all(shard_ports),
            "front_metrics": (perflib.parse_prometheus(perflib.scrape(port))
                              if front_pid else {}),
        }

    cpu_pids = attestd_pids + ([front_pid] if front_pid else [])
    steal0 = perflib.steal_ticks()
    before = snapshot()
    samples = sample_cpu(cpu_pids, before["t"], seconds, busy)
    after = snapshot()
    steal = perflib.steal_ticks() - steal0
    load.stop()
    result = json.loads(load.lines[-1])
    if server.stop() != 0:
        raise BenchError("server exited nonzero")

    t0, t1 = before["t"], after["t"]
    batches = result["batches"]
    ok_credit, att_credit = perflib.window_credit(batches, t0, t1)
    if att_credit <= 0:
        raise BenchError("no session overlapped the measured window")
    run = base_result(batches, t0, t1, ok_credit, att_credit, setups,
                      probes, result["errors"], seconds, samples)

    def server_kb(snap, key):
        procs = list(snap["servers"].values())
        if front_pid:
            procs.append(snap["front"])
        return sum(p[key] for p in procs)

    # The peak is read as the window opens, after a fixed number of sessions
    # (set-up probes and warm-up). The audit log keeps an entry per session,
    # so a peak read at the end flips with whether a vector doubled inside
    # the window (small_sharded: 21.6 or 26-30 MB). The growth itself is
    # server.rss_growth_kb_per_att.
    run["rss_peak_mb"] = server_kb(before, "vmhwm_kb") / 1024.0
    run["steal"] = steal
    if not trace:
        return run

    ticks_ms = 1000.0 / perflib.CLK_TCK

    def proc_ticks(snap_before, snap_after):
        tids = list(snap_after["threads"])
        d = perflib.thread_delta(snap_before, snap_after, tids)
        return d["utime"] + d["stime"]

    server_ticks = sum(proc_ticks(before["servers"][p], after["servers"][p])
                       for p in attestd_pids)
    front_ticks = (proc_ticks(before["front"], after["front"])
                   if front_pid else 0)
    layers = {}
    loop = {"utime": 0, "stime": 0, "voluntary": 0, "nonvoluntary": 0}
    verify = dict(loop)
    for pid in attestd_pids:
        loop_tid, workers = perflib.thread_roles(after["servers"][pid], pid)
        for acc, tids in ((loop, [loop_tid]), (verify, workers)):
            d = perflib.thread_delta(before["servers"][pid],
                                     after["servers"][pid], tids)
            for key in acc:
                acc[key] += d[key]
    loop_cpu = (loop["utime"] + loop["stime"]) * ticks_ms / att_credit
    layers["attestd.loop_cpu_ms_per_att"] = loop_cpu
    layers["attestd.loop_sys_share"] = (
        loop["stime"] / max(1, loop["utime"] + loop["stime"]))
    layers["attestd.loop_wakeups_per_att"] = loop["voluntary"] / att_credit
    layers["attestd.verify_cpu_ms_per_att"] = (
        (verify["utime"] + verify["stime"]) * ticks_ms / att_credit)
    layers["attestd.verify_wakeups_per_att"] = verify["voluntary"] / att_credit
    delta = perflib.prom_delta(before["metrics"], after["metrics"])
    layers["net.bytes_tx_per_att"] = (
        delta.get("sacha_net_bytes_tx", 0.0) / att_credit)
    layers["net.bytes_rx_per_att"] = (
        delta.get("sacha_net_bytes_rx", 0.0) / att_credit)
    occupancy_count = delta.get("sacha_engine_batch_occupancy_count", 0.0)
    layers["verify.batch_occupancy_mean"] = (
        delta.get("sacha_engine_batch_occupancy_sum", 0.0) / occupancy_count
        if occupancy_count else 0.0)
    layers["attestd.session_ms_p50"] = perflib.histogram_quantile(
        delta, "sacha_attestd_session_ns", 0.5) / 1e6
    client_cpu = proc_ticks(before["load"], after["load"]) * ticks_ms / att_credit
    layers["load.client_cpu_ms_per_att"] = client_cpu
    loop_threads = len(attestd_pids)
    layers["load.headroom"] = ((client_cpu / spec["threads"])
                               / (loop_cpu / loop_threads) if loop_cpu else 0.0)
    front_delta = perflib.prom_delta(before["front_metrics"],
                                     after["front_metrics"])
    layers["coord.cpu_ms_per_att"] = front_ticks * ticks_ms / att_credit
    layers["shard.cpu_ms_per_att"] = (server_ticks * ticks_ms / att_credit
                                      if front_pid else 0.0)
    layers["coord.redirects_per_att"] = (
        front_delta.get("sacha_coord_redirects", 0.0) / att_credit)
    layers["server.rss_growth_kb_per_att"] = (
        (server_kb(after, "vmrss_kb") - server_kb(before, "vmrss_kb"))
        / att_credit)
    run["layers"] = layers
    return run


def sample_cpu(pids, start_ns, seconds, busy):
    """Sleeps through the window, rotating the `busy` threads over the vCPUs
    and sampling the server's CPU time at SUBWINDOWS evenly spaced instants;
    returns [(t_ns, cpu_ns, steal), ...] with the host's cumulative steal
    ticks."""
    def sample():
        return (time.monotonic_ns(),
                sum(perflib.process_cpu_ns(pid) for pid in pids),
                perflib.steal_ticks())
    samples = [sample()]
    step = 0
    for i in range(1, SUBWINDOWS + 1):
        due = start_ns + i * seconds * 1e9 / SUBWINDOWS
        while True:
            if ROTATE_CPUS:
                rotate(busy, step)
                step += 1
            left = (due - time.monotonic_ns()) / 1e9
            if left <= 0:
                break
            time.sleep(min(left, ROTATE_S))
        samples.append(sample())
    return samples


def base_result(batches, t0, t1, ok_credit, att_credit, setups, probes,
                errors, seconds, samples):
    latencies = perflib.window_latencies(batches, t0, t1)
    if not latencies:
        raise BenchError("no session finished inside the measured window")
    rates = perflib.subwindow_rates(batches, samples)
    if not rates:
        raise BenchError("no sub-window credited a session")
    p50s = perflib.subwindow_latency_p50(batches, samples)
    attempted = probes + sum(b[2] for b in batches)
    ok = probes + sum(b[3] for b in batches)
    tail = perflib.tail_percentile(len(latencies))
    return {
        "att_per_s": statistics.median(r for r, _ in rates),
        "server_cpu_ms_per_att": statistics.median(c for _, c in rates),
        "window_att_per_s": ok_credit / ((t1 - t0) / 1e9),
        "subwindow_rates": [round(r, 3) for r, _ in rates],
        "subwindow_steal": [b[2] - a[2] for a, b in zip(samples, samples[1:])],
        "latency_p50_ms": statistics.median(p50s) / 1e6,
        "load.latency_tail_ms": perflib.quantile(latencies,
                                                 tail / 100.0) / 1e6,
        "tail_percentile": tail,
        "latency_samples": len(latencies),
        "window_sessions": att_credit,
        "setup_s": statistics.median(setups),
        "setups": setups,
        "attempted": attempted,
        "failed": attempted - ok,
        "errors": errors,
        "seconds": seconds,
    }


# -- one replay run ----------------------------------------------------------

def replay_argv(spec, seed):
    return [binary("perfbench_native"), "replay", "--device", spec["device"],
            "--seed", str(seed)]


def run_replay(spec, seed, seconds, trace):
    setups = []
    for k in range(spec["setups"] - 1):
        t0 = time.monotonic()
        proc = Proc(replay_argv(spec, seed) + ["--setup-only"],
                    "replay.%d.log" % k)
        proc.wait_line("first_verdict")
        setups.append(time.monotonic() - t0)
        if proc.stop() != 0:
            raise BenchError("replay set-up failed")
    t0 = time.monotonic()
    proc = Proc(replay_argv(spec, seed), "replay.log")
    proc.wait_line("first_verdict")
    setups.append(time.monotonic() - t0)
    # "warm <ns> lanes <n>": the lanes are the first n threads it started.
    n_lanes = int(proc.wait_line("warm").split()[3])
    warm = perflib.snapshot_process(proc.pid)
    lanes = perflib.first_threads(warm, proc.pid, n_lanes)
    steal0 = perflib.steal_ticks()
    ta = time.monotonic_ns()
    samples = sample_cpu([proc.pid], ta, seconds, lanes)
    after = perflib.snapshot_process(proc.pid)
    tb = samples[-1][0]
    steal = perflib.steal_ticks() - steal0
    if proc.stop() != 0:
        raise BenchError("replay exited nonzero")
    result = json.loads(proc.lines[-1])
    batches = result["batches"]
    ok_credit, att_credit = perflib.window_credit(batches, ta, tb)
    if att_credit <= 0:
        raise BenchError("no replay group overlapped the measured window")
    run = base_result(batches, ta, tb, ok_credit, att_credit, setups,
                      REPLAY_TRANSCRIPTS, result["errors"], seconds, samples)
    run["rss_peak_mb"] = warm["vmhwm_kb"] / 1024.0
    run["steal"] = steal
    if trace:
        run["layers"] = {name: 0.0 for name in PER_LAYER}
        run["layers"]["server.rss_growth_kb_per_att"] = (
            (after["vmrss_kb"] - warm["vmrss_kb"]) / att_credit)
    return run


# -- traced in-process run ---------------------------------------------------

def run_traced(spec, seed, workload):
    """The traced in-process run: the replay path itself on v6_replay,
    live in-process sessions of the workload's fleet otherwise."""
    spans_path = os.path.join(RUN_DIR, "%s.spans.json" % workload)
    traced = spec["traced"]
    argv = [binary("perfbench_native"), "traced", "--device", spec["device"],
            "--seed", str(seed), "--sessions", str(traced["sessions"]),
            "--spans-out", spans_path]
    if spec["kind"] == "replay":
        argv.append("--replay")
    else:
        argv += ["--group", str(traced["group"]),
                 "--warmup", str(traced["warmup"]),
                 "--tamper-period", str(spec["tamper_period"])]
    code, out, err = run_once(argv)
    if code != 0:
        raise BenchError("traced run failed: %s" % err.strip())
    return json.loads(out.strip().splitlines()[-1])


def traced_layers(traced, server_cpu_ms_per_att, has_transport):
    n = traced["sessions"]
    spans = traced["layers"]

    def per_att(name):
        return spans[name][0] / 1e6 / n

    def per_call(name):
        ns, calls = spans[name]
        return ns / 1e6 / calls if calls else 0.0

    out = {
        "bitstream.model_build_ms": traced["model_build_ns"] / 1e6,
        "provision.verifier_for_ms": per_call("provision.verifier_for"),
        "prover.boot_ms": per_call("prover.boot"),
        "prover.handle_ms_per_att": per_att("prover.handle"),
        "session.cmdgen_ms_per_att": per_att("session.cmdgen"),
        "session.commands_per_att": traced["commands"] / n,
        "wire.encode_ms_per_att": per_att("wire.encode"),
        "wire.decode_ms_per_att": per_att("wire.decode"),
        "verify.absorb_ms_per_att": per_att("verify.absorb"),
        "verify.finish_ms_per_att": per_att("verify.finish"),
        "trace.coverage": (sum(ns for ns, _ in spans.values())
                           / traced["traced_wall_ns"]),
        "trace.overhead": (traced["traced_wall_ns"]
                           / traced["untraced_wall_ns"] - 1.0),
    }
    server_layers = sum(per_att(name) for name in SERVER_LAYERS)
    out["attestd.transport_ms_per_att"] = (
        server_cpu_ms_per_att - server_layers if has_transport else 0.0)
    return out, server_layers


def attribution_table(workload, layers, server_cpu, server_layers, traced):
    rows = ["attribution (%s, traced in-process run, %d sessions):"
            % (workload, traced["sessions"])]
    for name in ("provision.verifier_for_ms", "session.cmdgen_ms_per_att",
                 "wire.decode_ms_per_att", "verify.absorb_ms_per_att",
                 "verify.finish_ms_per_att", "wire.encode_ms_per_att",
                 "prover.boot_ms", "prover.handle_ms_per_att"):
        rows.append("  %-28s %12.4f ms" % (name, layers[name]))
    rows.append("  %-28s %12.4f ms  (server layers above: %.4f ms)"
                % ("server_cpu_ms_per_att", server_cpu, server_layers))
    rows.append("  %-28s %12.4f ms" % ("attestd.transport_ms_per_att",
                                       layers["attestd.transport_ms_per_att"]))
    rows.append("  %-28s %12.4f" % ("trace.coverage", layers["trace.coverage"]))
    rows.append("  tracing overhead: traced %.1f ms vs untraced %.1f ms wall "
                "(%+.2f%%)" % (traced["traced_wall_ns"] / 1e6,
                               traced["untraced_wall_ns"] / 1e6,
                               100.0 * layers["trace.overhead"]))
    return "\n".join(rows)


# -- main --------------------------------------------------------------------

def host_fingerprint():
    model = "unknown"
    try:
        for line in perflib.read_text("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    code, out, _ = run_once([binary("perfbench_native"), "info"])
    info = json.loads(out) if code == 0 else {}
    info.update({"cpu": model, "nproc": os.cpu_count(),
                 "kernel": platform.release()})
    return info


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    seed = args.seed + 1  # 0 is a legal --seed; the fleets want seed >= 1

    build()
    host = host_fingerprint()
    runner = run_socket if spec["kind"] == "socket" else run_replay
    run = runner(spec, seed, args.seconds, bool(args.trace))
    host["steal_ticks"] = run["steal"]
    print("host: " + json.dumps(host, sort_keys=True))
    print("run: %s seed=%d sessions attempted=%d completed=%d failed=%d; "
          "window=%.1fs holds %.1f sessions (%.2f/s over the whole window), "
          "latency samples=%d (tail = p%g); setups=%s"
          % (args.workload, args.seed, run["attempted"],
             run["attempted"] - run["failed"], run["failed"], run["seconds"],
             run["window_sessions"], run["window_att_per_s"],
             run["latency_samples"], run["tail_percentile"],
             ["%.3f" % s for s in run["setups"]]))
    print("sub-window att/s: %s" % run["subwindow_rates"])
    print("sub-window steal ticks: %s" % run["subwindow_steal"])
    for error in run["errors"]:
        print("error: " + error)
    correct = run["failed"] == 0 and not run["errors"]
    attempted, failed = run["attempted"], run["failed"]

    if args.trace:
        traced = run_traced(spec, seed, args.workload)
        attempted += traced["attempted"]
        failed += traced["attempted"] - traced["ok"]
        correct = correct and traced["ok"] == traced["attempted"]
        layers, server_layers = traced_layers(
            traced, run["server_cpu_ms_per_att"], spec["kind"] == "socket")
        metrics = dict(run["layers"])
        metrics.update(layers)
        metrics["load.latency_tail_ms"] = run["load.latency_tail_ms"]
        metrics["host.steal_ticks"] = run["steal"]
        if spec.get("coord_layers"):
            sharded = run_socket(SHARDED, seed, args.seconds, True)
            print("sharded run: sessions attempted=%d failed=%d, %.1f/s"
                  % (sharded["attempted"], sharded["failed"],
                     sharded["att_per_s"]))
            for error in sharded["errors"]:
                print("error: " + error)
            attempted += sharded["attempted"]
            failed += sharded["failed"]
            correct = (correct and sharded["failed"] == 0
                       and not sharded["errors"])
            for name in COORD_LAYERS:
                metrics[name] = sharded["layers"][name]
        print(attribution_table(args.workload, metrics,
                                run["server_cpu_ms_per_att"], server_layers,
                                traced))
        values = {name: (metrics[name], unit)
                  for name, unit in PER_LAYER.items()}
    else:
        values = {name: (run[name], E2E_UNITS[name]) for name in END_TO_END}
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
    finally:
        Proc.kill_all()
