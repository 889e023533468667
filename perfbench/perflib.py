"""Helpers of the SACHa service benchmark: /proc readers, Prometheus
scrape deltas, closed-loop window accounting and percentile choice.

Pure functions take text or numbers so test_perflib.py can pin them; the
readers at the bottom only open files under /proc and one loopback socket.
"""

import os
import socket

CLK_TCK = os.sysconf("SC_CLK_TCK")


# -- /proc parsers ----------------------------------------------------------

def parse_task_stat(text):
    """Fields of /proc/<pid>/task/<tid>/stat that the benchmark reads.

    The comm field (2) is parenthesised and may itself hold spaces or
    parentheses, so the fixed fields are counted from the last ')'.
    Returns utime/stime in clock ticks and starttime in ticks after boot.
    """
    close = text.rindex(")")
    rest = text[close + 2:].split()
    # rest[0] is field 3 (state); field n sits at rest[n - 3].
    return {
        "state": rest[0],
        "utime": int(rest[14 - 3]),
        "stime": int(rest[15 - 3]),
        "starttime": int(rest[22 - 3]),
    }


def parse_status(text):
    """Integer fields of /proc/<pid>/status (kB units dropped)."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if not sep:
            continue
        parts = value.split()
        if parts and parts[0].isdigit():
            out[key.strip()] = int(parts[0])
    return out


def parse_proc_stat_steal(text):
    """Steal ticks summed over all CPUs from the 'cpu' line of /proc/stat."""
    for line in text.splitlines():
        if line.startswith("cpu "):
            fields = line.split()
            return int(fields[8]) if len(fields) > 8 else 0
    return 0


# -- Prometheus text --------------------------------------------------------

def parse_prometheus(text):
    """{'name{labels}': value} for every sample line of a scrape."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            out[key] = float(value)
        except ValueError:
            continue
    return out


def prom_delta(before, after):
    """Per-series growth between two scrapes; series new in `after` count
    from zero, series that vanished are dropped."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def histogram_quantile(delta, family, q):
    """Quantile q of a Prometheus histogram family from cumulative bucket
    deltas, interpolated linearly inside the bucket (as PromQL does)."""
    buckets = []
    prefix = family + "_bucket{le=\""
    for key, value in delta.items():
        if key.startswith(prefix):
            bound = key[len(prefix):-2]
            buckets.append((float("inf") if bound == "+Inf" else float(bound),
                            value))
    buckets.sort()
    if not buckets or buckets[-1][1] <= 0:
        return 0.0
    rank = q * buckets[-1][1]
    lower_bound, lower_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= rank:
            if bound == float("inf"):
                return lower_bound
            if count == lower_count:
                return bound
            return lower_bound + (bound - lower_bound) * (
                (rank - lower_count) / (count - lower_count))
        lower_bound, lower_count = bound, count
    return lower_bound


# -- closed-loop window accounting ------------------------------------------

def window_credit(batches, t0, t1):
    """Sessions credited to the window [t0, t1].

    Each batch is (start_ns, end_ns, attempted, ok, latencies). A batch
    contributes its ok sessions times the share of its duration inside
    the window, so a window edge cutting a batch counts the part of the
    work done inside it instead of rounding to whole sessions.
    Returns (ok_credit, attempted_credit).
    """
    ok = attempted = 0.0
    for start, end, n_attempted, n_ok, _ in batches:
        overlap = min(end, t1) - max(start, t0)
        if overlap <= 0:
            continue
        share = overlap / (end - start) if end > start else 1.0
        ok += n_ok * share
        attempted += n_attempted * share
    return ok, attempted


def window_latencies(batches, t0, t1):
    """Latencies of the sessions whose batch ended inside [t0, t1]."""
    out = []
    for _, end, _, _, latencies in batches:
        if t0 < end <= t1:
            out.extend(latencies)
    return out


def subwindow_rates(batches, samples):
    """Per-sub-window throughput and CPU cost from CPU samples taken
    during the window: samples is [(t_ns, cpu_ns, ...), ...] in time
    order. Returns [(sessions_per_s, cpu_ms_per_session), ...], one per
    gap; gaps that credit no session are skipped."""
    out = []
    for (ta, ca, *_), (tb, cb, *_) in zip(samples, samples[1:]):
        ok, attempted = window_credit(batches, ta, tb)
        if attempted <= 0:
            continue
        out.append((ok / ((tb - ta) / 1e9), (cb - ca) / 1e6 / attempted))
    return out


def subwindow_latency_p50(batches, samples):
    """Median latency of each sub-window between the CPU samples (the
    sessions whose batch ended inside it), in time order; sub-windows in
    which no batch ended are skipped."""
    out = []
    for (ta, *_), (tb, *_) in zip(samples, samples[1:]):
        latencies = window_latencies(batches, ta, tb)
        if latencies:
            out.append(quantile(latencies, 0.5))
    return out


def quantile(samples, q):
    """Linear-interpolated quantile of a non-empty sample (q in [0, 1])."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# p99 is the highest tail reported: p99.9 of a 15 s small-device window
# (tens of samples beyond it) moves with every host scheduling hiccup.
TAIL_PERCENTILES = (99.0, 90.0, 75.0, 50.0)


def tail_percentile(n, min_beyond=10):
    """The highest of TAIL_PERCENTILES with at least `min_beyond` of n
    samples beyond it; 50 when none qualifies (too few samples for any
    tail, so the median is the most the sample supports)."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= min_beyond:
            return p
    return 50.0


# -- readers ----------------------------------------------------------------

def read_text(path):
    with open(path, encoding="ascii", errors="replace") as f:
        return f.read()


def snapshot_process(pid):
    """Per-thread CPU and context switches plus VmHWM of one process.

    Returns {"threads": {tid: {...}}, "vmhwm_kb": int, "vmrss_kb": int};
    threads are keyed by tid and carry utime, stime, starttime, voluntary,
    nonvoluntary.
    """
    threads = {}
    task_dir = "/proc/%d/task" % pid
    for name in os.listdir(task_dir):
        try:
            stat = parse_task_stat(read_text("%s/%s/stat" % (task_dir, name)))
            status = parse_status(read_text("%s/%s/status" % (task_dir, name)))
        except (OSError, ValueError, IndexError):
            continue  # thread exited between listdir and open
        stat["voluntary"] = status.get("voluntary_ctxt_switches", 0)
        stat["nonvoluntary"] = status.get("nonvoluntary_ctxt_switches", 0)
        threads[int(name)] = stat
    status = parse_status(read_text("/proc/%d/status" % pid))
    return {"threads": threads, "vmhwm_kb": status.get("VmHWM", 0),
            "vmrss_kb": status.get("VmRSS", 0)}


def thread_roles(snapshot, pid):
    """(loop_tid, worker_tids) of an attestd process: the loop thread is the
    first thread AttestServer::start() creates, i.e. the earliest-started
    thread other than main; the verify workers are the rest."""
    others = sorted((t["starttime"], tid)
                    for tid, t in snapshot["threads"].items() if tid != pid)
    if not others:
        return None, []
    return others[0][1], [tid for _, tid in others[1:]]


def first_threads(snapshot, pid, n):
    """The first n threads a process started after its main thread (tids
    grow in creation order): the worker pool of the load generator and of
    the replay, which start their workers before anything else."""
    return sorted(tid for tid in snapshot["threads"] if tid != pid)[:n]


def rotation(cpus, n, step):
    """The vCPU of each of n threads at rotation step `step`: thread i
    starts on the slot i*len(cpus)/n, so the threads spread evenly over
    the CPUs, and every step moves each of them one CPU on."""
    return [cpus[(step + i * len(cpus) // n) % len(cpus)] for i in range(n)]


def thread_delta(before, after, tids):
    """Summed utime, stime, voluntary, nonvoluntary growth over `tids`."""
    out = {"utime": 0, "stime": 0, "voluntary": 0, "nonvoluntary": 0}
    for tid in tids:
        a = after["threads"].get(tid)
        b = before["threads"].get(tid)
        if a is None or b is None:
            continue
        for key in out:
            out[key] += a[key] - b[key]
    return out


def children_of(pid):
    """Direct children of a process (/proc/<pid>/task/*/children)."""
    kids = []
    task_dir = "/proc/%d/task" % pid
    for name in os.listdir(task_dir):
        try:
            kids.extend(int(x) for x in
                        read_text("%s/%s/children" % (task_dir, name)).split())
        except OSError:
            continue
    return sorted(kids)


def process_cpu_ns(pid):
    """On-CPU nanoseconds of every thread of a process, from schedstat
    (exact, unlike the tick-sampled utime/stime)."""
    total = 0
    task_dir = "/proc/%d/task" % pid
    for name in os.listdir(task_dir):
        try:
            total += int(read_text("%s/%s/schedstat" % (task_dir, name))
                         .split()[0])
        except (OSError, ValueError, IndexError):
            continue
    return total


def steal_ticks():
    return parse_proc_stat_steal(read_text("/proc/stat"))


def scrape(port):
    """GET http://127.0.0.1:<port>/metrics; returns the body text."""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as s:
        s.sendall(b"GET /metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n")
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks).decode("utf-8", errors="replace")
    _, _, body = raw.partition("\r\n\r\n")
    return body
