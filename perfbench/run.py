#!/usr/bin/env python3
"""REFILL benchmark: two workloads run through the real `refill` executable.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The script copies the refill
project with perfbench/tool/ into .perfbench/src and builds
bin/refill_cli.exe and perfbench/tool/tool.exe there (dune, release profile,
build directory .perfbench/build).  It generates the workload's input from
the seed (`refill simulate` for the 30-day dump, tool.exe for the serve
frames), measures for S seconds, checks the program's outputs against an
in-process reference, and prints as its last stdout line one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 they are the
per-layer ones, from a separate in-process traced run.  Everything a run
writes stays under .perfbench/ in the checkout; the full result (with nproc
and seed) and the span trace of a traced run land in .perfbench/results/.
See perfbench/README.md for what each number means.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import re
import select
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

WORKLOADS = ("batch-30d", "serve-1225")
# Untraced runs set up this many times (setup_s is the median) and measure
# at least this many repetitions: analyze runs, saturated serve passes.  A
# 30-day set-up costs 4-9 s, so batch sets up twice to keep a whole run
# near a minute.
SETUPS = {"batch-30d": 2, "serve-1225": 3}
MIN_REPS = {"batch-30d": 4, "serve-1225": 15}
# A traced run of batch makes this many traced and untraced runs each;
# trace.overhead_ratio compares their medians.
TRACE_ROUNDS = 3
RATES = (("r100k", 100_000), ("r200k", 200_000))
ACK_LIMIT_MS = 25.0
# `refill serve --shards 2` can die with CamlinternalLazy.Undefined (shard
# workers force Protocol's lazy tables concurrently), so the daemon runs one
# shard; tool.exe times the sharded layer in a replay.
SERVE_SHARDS = 1
CHECKPOINT_INTERVAL = 0.5
# A saturated pass takes 0.3-0.8 s.  Its daemon checkpoints only this often,
# so no periodic checkpoint (≈0.2 s on the ingest thread) falls inside the
# pass: with one, the pass time is bimodal.  The checkpoint's cost shows in
# the open-loop passes' ack latency, which is where the per-layer table
# predicts it.
SATURATED_CHECKPOINT_INTERVAL = 60.0
# The daemon's emit tap accepts a subscriber on a thread of its own, which
# may not have run yet when connect returns; lines emitted before it runs
# never reach the subscriber.  A saturated pass starts this long after the
# subscriber connected, while the daemon is idle.  (An open-loop pass waits
# for the first periodic checkpoint, which is longer.)
SUBSCRIBE_SETTLE_S = 0.1
LATE_LIMIT_MS = 10.0  # generator lateness p99 above this invalidates an open-loop pass
# An invalid open-loop pass is re-run on a fresh daemon, up to this many
# passes per rate in all.  The vCPUs of this kind of host are at times
# descheduled for 10 ms and more (steal time), which makes the generator
# late through no fault of the program.
OPEN_LOOP_TRIES = 3

ROOT = os.getcwd()
STATE = os.path.join(ROOT, ".perfbench")
SRC = os.path.join(STATE, "src")
BUILD = os.path.join(STATE, "build")
WORK = os.path.join(STATE, "run")
RESULTS = os.path.join(STATE, "results")
REFILL = os.path.join(BUILD, "default", "bin", "refill_cli.exe")
TOOL = os.path.join(BUILD, "default", "perfbench", "tool", "tool.exe")

live_procs = []
spawned = itertools.count()


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# -- build and helpers --------------------------------------------------------


def stage():
    """Copy what the build needs into a staging tree: the refill project
    (dune-project, top-level dune files, lib/, bin/) with perfbench/tool/
    inside it.  The tool links the project's private libraries, so it must
    be built within the project; the repository's own build skips it."""
    if os.path.exists(SRC):
        shutil.rmtree(SRC)
    os.makedirs(os.path.join(SRC, "perfbench"))
    for name in os.listdir(ROOT):
        if name in ("dune-project", "dune", "dune-workspace") or name.endswith(".opam"):
            shutil.copy2(os.path.join(ROOT, name), SRC)
    for d in ("lib", "bin", "perfbench/tool"):
        shutil.copytree(os.path.join(ROOT, d), os.path.join(SRC, d))


def build():
    for need in ("dune-project", "bin/refill_cli.ml", "lib", "perfbench/tool/tool.ml"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from the root of a REFILL source checkout")
    if shutil.which("dune") is None:
        fail("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    stage()
    cmd = ["dune", "build", "--root", SRC, "--build-dir", BUILD,
           "--profile", "release", "./bin/refill_cli.exe", "./perfbench/tool/tool.exe"]
    r = subprocess.run(cmd, cwd=SRC, env=env, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")


def run_tool(*args):
    r = subprocess.run([TOOL, *map(str, args)], capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail(f"tool {' '.join(map(str, args))} failed")


def md5(path):
    h = hashlib.md5()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_json(path):
    with open(path) as f:
        return json.load(f)


def quantile(xs, q):
    """Nearest-rank quantile; None when there is no sample."""
    if not xs:
        return None
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def vm_hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Watched:
    """A child process whose resident high-water mark is polled from
    /proc/<pid>/status until it exits.  A reaper thread stamps the exit.
    wait4's ru_maxrss is no use here: it keeps the high-water mark of the
    forked copy of this script from before the exec."""

    def __init__(self, argv, stdout_path=None):
        self.stderr_path = os.path.join(WORK, f"child{next(spawned)}.stderr")
        with open(self.stderr_path, "wb") as err, \
                open(stdout_path or os.devnull, "wb") as out:
            self.t_spawn = time.perf_counter()
            self.proc = subprocess.Popen(argv, stdout=out, stderr=err)
        live_procs.append(self)
        self.hwm_kb = 0
        self.t_exit = None
        self.status = None
        self._reaper = threading.Thread(target=self._reap, daemon=True)
        self._reaper.start()

    def _reap(self):
        _, status = os.waitpid(self.proc.pid, 0)
        self.t_exit = time.perf_counter()
        self.status = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.status

    def poll_rss(self):
        if self.t_exit is None:
            self.hwm_kb = max(self.hwm_kb, vm_hwm_kb(self.proc.pid))

    def signal(self, sig):
        """Send [sig] while the child runs.  Popen.send_signal and kill
        would poll first, and so could reap the child before the reaper
        thread does."""
        if self.t_exit is None:
            os.kill(self.proc.pid, sig)

    def wait(self, timeout):
        deadline = time.perf_counter() + timeout
        while self._reaper.is_alive():
            self.poll_rss()
            if time.perf_counter() > deadline:
                self.signal(signal.SIGKILL)
                self._reaper.join()
                break
            self._reaper.join(0.002)
        live_procs.remove(self)
        return self.status

    def peak_mb(self):
        return self.hwm_kb / 1024.0

    def stderr_text(self):
        with open(self.stderr_path, errors="replace") as f:
            return f.read()


def stop_all():
    for w in list(live_procs):
        w.signal(signal.SIGKILL)
        w._reaper.join()
        live_procs.remove(w)


# -- set-up ---------------------------------------------------------------------


# `refill simulate` days and nodes of each scale.  At 30 days and 100 nodes
# its scenario is Scenario.Citysee.default.
SIMULATE = {"full": ("30", "100"), "smoke": ("1", "16")}
GENERATED_RE = re.compile(
    r"generated \d+ packets, (\d+) surviving log records -> .* \(sink = node (\d+)\)")


def generate_once(workload, seed, scale, d):
    """Write one workload's inputs into [d].  The 30-day dump (node-major,
    with ground truth) comes from `refill simulate`; the serve frames, which
    no subcommand writes, from tool.exe."""
    if workload == "serve-1225":
        run_tool("frames", seed, scale, d)
        return
    days, nodes = SIMULATE[scale]
    argv = [REFILL, "simulate", "-q", "--seed", str(seed), "--days", days,
            "--nodes", nodes, "-o", os.path.join(d, "trace.txt")]
    r = subprocess.run(argv, capture_output=True, text=True)
    m = GENERATED_RE.search(r.stdout)
    if r.returncode != 0 or not m:
        sys.stderr.write(r.stdout + r.stderr)
        fail("refill simulate failed")
    with open(os.path.join(d, "meta.json"), "w") as f:
        json.dump({"records": int(m.group(1)), "sink": int(m.group(2))}, f)


def generate(workload, seed, scale, n):
    """Generate the inputs [n] times from the same seed; each repetition is
    timed from spawn to exit and must reproduce the first byte for byte."""
    times, digests = [], []
    for i in range(n):
        d = os.path.join(WORK, f"gen{i}")
        os.makedirs(d)
        t0 = time.perf_counter()
        generate_once(workload, seed, scale, d)
        times.append(time.perf_counter() - t0)
        digests.append({f: md5(os.path.join(d, f)) for f in sorted(os.listdir(d))})
        if i > 0:
            shutil.rmtree(d)
    if any(dg != digests[0] for dg in digests):
        fail("input generation is not deterministic in the seed")
    return os.path.join(WORK, "gen0"), times


# -- batch-30d ------------------------------------------------------------------

SUMMARY_RE = re.compile(
    r"reconstructed (\d+) packets: (\d+) logged events, (\d+) inferred lost "
    r"events, (\d+) unusable records")
GF_RE = re.compile(
    r"global flow: (\d+) events merged \((\d+) logged, (\d+) inferred\), (\d+) "
    r"node-log constraints relaxed")
VERDICTS_RE = re.compile(r"verdicts(?: \(reconciled with server DB\))?: (\d+) lost of (\d+) analyzed")
CAUSE_RE = re.compile(r"^  (\S+)\s+(\d+) \(")
ACC_RE = re.compile(
    r"cause accuracy vs ground truth: ([\d.]+)% from WSN logs alone, ([\d.]+)% "
    r"reconciled with the server DB")


def parse_analyze(text):
    """The numbers `refill analyze --global-flow` prints, in the shape of the
    tool's reference.json."""
    out, blocks, cur = {}, [], None
    for line in text.splitlines():
        if m := SUMMARY_RE.match(line):
            for k, v in zip(("packets", "logged_events", "inferred_events",
                             "skipped_events"), m.groups()):
                out[k] = int(v)
        elif m := GF_RE.match(line):
            for k, v in zip(("gf_events", "gf_logged", "gf_inferred",
                             "gf_relaxed"), m.groups()):
                out[k] = int(v)
        elif m := VERDICTS_RE.match(line):
            cur = {"lost": int(m.group(1)), "analyzed": int(m.group(2)), "causes": {}}
            blocks.append(cur)
        elif (m := CAUSE_RE.match(line)) and cur is not None:
            cur["causes"][m.group(1)] = int(m.group(2))
        elif m := ACC_RE.match(line):
            out["acc_raw"], out["acc_refined"] = m.groups()
    if len(blocks) == 2:
        out["verdicts"], out["refined"] = blocks
    return out


def repeat(argv, seconds, min_reps, output, stdout_path=None):
    """Run [argv] to completion as often as fits in [seconds], at least
    [min_reps] times; [output(status)] reads what one run produced."""
    walls, rss, outputs = [], [], []
    t_start = time.perf_counter()
    while len(walls) < min_reps or time.perf_counter() - t_start < seconds:
        w = Watched(argv, stdout_path)
        status = w.wait(170)
        walls.append(w.t_exit - w.t_spawn)
        rss.append(w.peak_mb())
        outputs.append(output(status))
    return {"walls": walls, "rss": rss, "outputs": outputs}


def measure_batch(inp, seconds, min_reps):
    out_path = os.path.join(WORK, "analyze.out")

    def output(status):
        with open(out_path) as f:
            return parse_analyze(f.read()) if status == 0 else None

    m = repeat([REFILL, "analyze", "--global-flow", os.path.join(inp, "trace.txt")],
               seconds, min_reps, output, stdout_path=out_path)
    m["reference"] = load_json(os.path.join(inp, "reference.json"))
    m["records"] = load_json(os.path.join(inp, "meta.json"))["records"]
    return m


def check_runs(m):
    """Batch: each run is one operation, and the numbers analyze printed
    must equal the in-process reference run's."""
    wrong = [o for o in m["outputs"] if o != m["reference"]]
    notes = [f"run produced {o}, reference {m['reference']}" for o in wrong]
    return len(m["outputs"]), len(wrong), not wrong, notes


# -- serve-1225 -----------------------------------------------------------------


def free_ports(n):
    """[n] free loopback ports, bound all at once so that they differ."""
    socks = [socket.socket() for _ in range(n)]
    try:
        for s in socks:
            s.bind(("127.0.0.1", 0))
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def load_frames(inp):
    with open(os.path.join(inp, "frames.bin"), "rb") as f:
        blob = f.read()
    frames, counts, off = [], [], 0
    while off < len(blob):
        (n,) = struct.unpack_from(">I", blob, off)
        payload = blob[off + 4: off + 4 + n]
        frames.append(struct.pack(">IB", n, ord("D")) + payload)
        counts.append(read_varint(payload))
        off += 4 + n
    return frames, counts


def read_varint(b):
    v, shift = 0, 0
    for byte in b:
        v |= (byte & 0x7F) << shift
        if byte < 0x80:
            return v
        shift += 7
    raise ValueError("truncated varint")


class Server:
    """One `refill serve` daemon, started fresh for one pass."""

    def __init__(self, inp, meta, interval, pin):
        self.port, self.emit_port = free_ports(2)
        ckpt = self.ckpt = os.path.join(WORK, "serve.ckpt")
        if os.path.exists(ckpt):
            os.remove(ckpt)
        self.metrics = os.path.join(WORK, "serve.metrics")
        argv = [*pin, REFILL, "serve", "-q", "--port", str(self.port),
                "--shards", str(SERVE_SHARDS), "--checkpoint", ckpt,
                "--checkpoint-interval", str(interval),
                "--emit-socket", str(self.emit_port),
                f"--metrics={self.metrics}", "--sink", str(meta["sink"]),
                "--watermark", str(meta["watermark"])]
        self.w = Watched(argv)
        deadline = time.perf_counter() + 60
        while True:
            self.w.poll_rss()
            if self.w.t_exit is not None:
                fail("serve exited at start-up: " + self.w.stderr_text())
            try:
                self.data = socket.create_connection(("127.0.0.1", self.port), timeout=5)
                self.data.sendall(b"refill-wire v1\n")
                greeting = b""
                while not greeting.endswith(b"\n"):
                    chunk = self.data.recv(64)
                    if not chunk:
                        raise ConnectionError("closed during handshake")
                    greeting += chunk
                if not greeting.startswith(b"refill-wire v1 ok"):
                    fail(f"unexpected greeting {greeting!r}")
                break
            except OSError:
                if time.perf_counter() > deadline:
                    fail("serve did not accept a handshake within 60 s")
                time.sleep(0.005)
        self.start_s = time.perf_counter() - self.w.t_spawn
        self.sub = socket.create_connection(("127.0.0.1", self.emit_port), timeout=5)
        self.data.setblocking(False)
        self.sub.setblocking(False)

    def align(self):
        """Start an open-loop pass right after the daemon's first periodic
        checkpoint (of an empty frontier), so the checkpoints fall at the
        same points of its schedule in every run."""
        deadline = time.perf_counter() + 10 * CHECKPOINT_INTERVAL
        while not os.path.exists(self.ckpt):
            if time.perf_counter() > deadline or self.w.t_exit is not None:
                fail("serve wrote no periodic checkpoint")
            time.sleep(0.002)

    def stop(self):
        self.w.signal(signal.SIGTERM)
        status = self.w.wait(60)
        self.data.close()
        self.sub.close()
        checkpoints = 0
        if os.path.exists(self.metrics):
            with open(self.metrics) as f:
                m = re.search(r"^refill_serve_checkpoint_seconds_count (\d+)", f.read(), re.M)
                checkpoints = int(m.group(1)) if m else 0
        return status, checkpoints


def serve_pass(inp, meta, frames, counts, expected, rate, pin):
    """One pass of every frame into a fresh daemon.  [rate] is records/s for
    an open loop, or None for a closed loop saturated under backpressure.
    Returns per-frame due/ack times, generator lateness, and the subscriber's
    lines with their arrival times."""
    srv = Server(inp, meta, CHECKPOINT_INTERVAL if rate else SATURATED_CHECKPOINT_INTERVAL, pin)
    if rate:
        srv.align()
    else:
        time.sleep(SUBSCRIBE_SETTLE_S)
    n = len(frames)
    t0 = time.perf_counter() + 0.005
    due, cum = [], 0
    for c in counts:
        due.append(t0 + (cum / rate if rate else 0.0))
        cum += c
    out, out_off, sent, end_queued = bytearray(), 0, 0, False
    sent_at = [0.0] * n
    late = []
    acks, ack_records = [], []
    inbuf, subbuf = bytearray(), bytearray()
    lines, line_times = [], []
    backlog = []  # frames due but not yet acked, sampled at each due time
    reset = False
    high_water = 1 << 18  # closed loop: bytes kept queued ahead of the socket

    def read_sub(now):
        try:
            chunk = srv.sub.recv(1 << 20)
        except BlockingIOError:
            return True
        except OSError:
            return False
        if not chunk:
            return False
        subbuf.extend(chunk)
        while (i := subbuf.find(b"\n")) >= 0:
            lines.append(bytes(subbuf[:i]))
            line_times.append(now)
            del subbuf[: i + 1]
        return True

    sub_open = True
    next_poll = 0.0
    while len(acks) < n + 1 and not reset:
        now = time.perf_counter()
        if now >= next_poll:
            srv.w.poll_rss()
            next_poll = now + 0.005
        while sent < n and (due[sent] <= now if rate else len(out) - out_off < high_water):
            if rate:
                late.append(now - due[sent])
                backlog.append(sent - len(acks))
            out += frames[sent]
            sent_at[sent] = now
            sent += 1
        if sent == n and not end_queued:
            out += struct.pack(">IB", 0, ord("E"))
            end_queued = True
        if out_off < len(out):
            try:
                out_off += srv.data.send(memoryview(out)[out_off:])
            except BlockingIOError:
                pass
            except OSError:
                reset = True
                break
            if out_off == len(out):
                out.clear()
                out_off = 0
        timeout = 0.05
        if rate and sent < n:
            timeout = max(0.0, due[sent] - time.perf_counter())
        wl = [srv.data] if out_off < len(out) else []
        rl = [srv.data] + ([srv.sub] if sub_open else [])
        r, w, _ = select.select(rl, wl, [], timeout)
        now = time.perf_counter()
        if srv.sub in r:
            sub_open = read_sub(now)
        if srv.data in r:
            try:
                chunk = srv.data.recv(1 << 16)
            except BlockingIOError:
                chunk = None
            except OSError:
                chunk = b""
            if chunk == b"":
                reset = True
                break
            inbuf.extend(chunk or b"")
            while len(inbuf) >= 21:
                length, typ = struct.unpack_from(">IB", inbuf, 0)
                if typ != ord("A") or length != 16:
                    reset = True
                    break
                _, records = struct.unpack_from(">qq", inbuf, 5)
                del inbuf[:21]
                acks.append(now)
                ack_records.append(records)
    t_final = acks[-1] if len(acks) == n + 1 else None
    # Lines can still be on their way to the subscriber at the final ack.  An
    # open-loop pass waits for them (bounded): their emit lag is measured.  A
    # saturated pass stops the daemon at once and reads the rest after.
    deadline = time.perf_counter() + (4 * CHECKPOINT_INTERVAL + 1 if rate else 0)
    while sub_open and len(lines) < len(expected) and time.perf_counter() < deadline:
        r, _, _ = select.select([srv.sub], [], [], 0.05)
        if r:
            sub_open = read_sub(time.perf_counter())
    srv.w.signal(signal.SIGTERM)
    while sub_open:
        r, _, _ = select.select([srv.sub], [], [], 10)
        if not r:
            break
        sub_open = read_sub(time.perf_counter())
    status, checkpoints = srv.stop()
    t_end = time.perf_counter()
    if rate is None:
        due = sent_at
    return {
        "rate": rate, "start_s": srv.start_s, "status": status, "t_end": t_end,
        "stderr": srv.w.stderr_text(),
        "peak_mb": srv.w.peak_mb(), "checkpoints": checkpoints,
        "due": due, "acks": acks[:n], "final_records": ack_records[-1] if t_final else None,
        "t_first": sent_at[0], "t_final": t_final, "late": late, "backlog": backlog,
        "lines": lines, "line_times": line_times, "discarded": False,
    }


def measure_serve(inp, seconds, min_reps, open_loop):
    meta = load_json(os.path.join(inp, "meta.json"))
    frames, counts = load_frames(inp)
    with open(os.path.join(inp, "reference.lines"), "rb") as f:
        expected = f.read().splitlines()
    with open(os.path.join(inp, "reference.trigger")) as f:
        trigger = [int(x) for x in f.read().split()]
    # The daemon (one shard, so one OCaml domain) gets a vCPU of its own and
    # the load generator another.  Unpinned, every hand-over between the
    # daemon's threads may wait for the other vCPU to be woken, and on a
    # shared host that wait swung saturated throughput by 2-3x between runs.
    cpus = sorted(os.sched_getaffinity(0))
    pin = []
    if len(cpus) >= 2 and shutil.which("taskset"):
        os.sched_setaffinity(0, {cpus[0]})
        pin = ["taskset", "-c", str(cpus[-1])]
    # With [open_loop], one pass per offered rate (each ~1,600 frames, so a
    # p99 has 16 samples beyond it); then saturated passes for the rest of
    # the time.
    t_start = time.perf_counter()
    passes = []
    for _, rate in RATES if open_loop else ():
        for attempt in range(1, OPEN_LOOP_TRIES + 1):
            p = serve_pass(inp, meta, frames, counts, expected, rate, pin)
            p["discarded"] = late_p99_ms(p) > LATE_LIMIT_MS and attempt < OPEN_LOOP_TRIES
            passes.append(p)
            if not p["discarded"]:
                break
    completed = attempts = 0
    while (completed < min_reps and attempts < 3 * min_reps) \
            or time.perf_counter() - t_start < seconds:
        passes.append(serve_pass(inp, meta, frames, counts, expected, None, pin))
        completed += passes[-1]["t_final"] is not None
        attempts += 1
    return {"records": meta["records"], "frames": len(frames), "passes": passes,
            "expected": expected, "trigger": trigger}


def late_p99_ms(p):
    return quantile(p["late"], 0.99) * 1000


def check_serve(m):
    """Frames unacked (refused, reset, or lost to a daemon crash) and lines
    the emit tap never delivered are failed operations.  In a pass where the
    daemon exited cleanly, a delivered line that differs from the reference
    at its position, or a final ack that does not cover every record sent, is
    a wrong output.  In a pass where the daemon died, such lines count as
    failed operations of that pass: its output ends at the crash.  Each
    offered rate's schedule is one operation more, failed when the generator
    itself fell behind it on every try (the run is then invalid).  A pass
    re-run for that reason still counts its frames and lines."""
    attempted = failed = 0
    correct, notes = True, []
    expected = m["expected"]
    for p in m["passes"]:
        if p["discarded"]:
            notes.append(f"pass rate={p['rate']}: re-run, generator p99 lateness "
                         f"{late_p99_ms(p):.2f} ms > {LATE_LIMIT_MS} ms")
        elif p["rate"]:
            attempted += 1
            if late_p99_ms(p) > LATE_LIMIT_MS:
                failed += 1
                notes.append(f"pass rate={p['rate']}: invalid, generator p99 lateness "
                             f"{late_p99_ms(p):.2f} ms > {LATE_LIMIT_MS} ms")
        unacked = m["frames"] - len(p["acks"])
        got = p["lines"]
        diffs = [j for j, (a, b) in enumerate(zip(got, expected)) if a != b]
        wrong = len(diffs) + max(0, len(got) - len(expected))
        missing = max(0, len(expected) - len(got))
        attempted += m["frames"] + len(expected)
        failed += unacked + missing + wrong
        if p["status"] == 0 and (wrong or p["final_records"] != m["records"]):
            correct = False
        if unacked or missing or wrong or p["status"] != 0 or p["final_records"] != m["records"]:
            notes.append(f"pass rate={p['rate']}: exit={p['status']} unacked={unacked} "
                         f"lines={len(got)}/{len(expected)} wrong={wrong} "
                         f"final_records={p['final_records']}/{m['records']} "
                         f"stderr={p['stderr'].strip()[:200]!r}")
            if diffs:
                j = diffs[0]
                notes.append(f"line {j}: got {got[j][:120]!r}, want {expected[j][:120]!r}")
    return attempted, failed, correct, notes


def serve_latencies(m):
    """Ack latency per offered rate, emit lag at r200k, generator lateness,
    from the passes kept."""
    out = {}
    by_rate = {}
    for p in m["passes"]:
        if not p["discarded"]:
            by_rate.setdefault(p["rate"], []).append(p)
    late_all = []
    for name, rate in RATES:
        samples, growth = [], []
        for p in by_rate.get(rate, []):
            n = m["frames"]
            for i in range(n):
                # An unacked frame misses any limit: it counts with the time
                # from its due to the end of the pass, a lower bound.
                ack = p["acks"][i] if i < len(p["acks"]) else p["t_end"]
                samples.append((ack - p["due"][i]) * 1000)
            q = max(1, len(p["backlog"]) // 4)
            growth.append(statistics.mean(p["backlog"][-q:]) - statistics.mean(p["backlog"][:q]))
            late_all.extend(x * 1000 for x in p["late"])
        p50, p99 = quantile(samples, 0.5), quantile(samples, 0.99)
        out[f"ack_p50_ms.{name}"] = p50
        out[f"ack_p99_ms.{name}"] = p99
        out[f"ack_samples.{name}"] = len(samples)
        out[f"slo_held.{name}"] = int(p99 <= ACK_LIMIT_MS and max(growth) <= 1.0)
        if name == "r200k":
            lags = []
            for p in by_rate.get(rate, []):
                for j, t in enumerate(p["line_times"]):
                    if j < len(m["trigger"]):
                        lags.append((t - p["due"][m["trigger"][j]]) * 1000)
            out["emit_lag_p50_ms.r200k"] = quantile(lags, 0.5)
            out["emit_lag_p99_ms.r200k"] = quantile(lags, 0.99)
            out["emit_lag_samples.r200k"] = len(lags)
    out["gen.late_ms_p99"] = quantile(late_all, 0.99)
    return out


# -- the run --------------------------------------------------------------------

MEASURE = {"batch-30d": measure_batch, "serve-1225": measure_serve}
CHECK = {"batch-30d": check_runs, "serve-1225": check_serve}


def saturated_walls(m):
    """(records, first send to final ack) of each saturated pass that
    completed; a pass the daemon died in is counted as failed operations."""
    return [(m["records"], p["t_final"] - p["t_first"])
            for p in m["passes"] if p["rate"] is None and p["t_final"]]


def end_to_end(workload, m, setup_s):
    if workload == "serve-1225":
        rps = statistics.median([r / w for r, w in saturated_walls(m)] or [0.0])
        rss = statistics.median(p["peak_mb"] for p in m["passes"])
    else:
        rps = statistics.median(m["records"] / w for w in m["walls"])
        rss = statistics.median(m["rss"])
    return {"records_per_s": (rps, "1/s"), "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke shrinks batch to a 1-day, 16-node trace and serve "
                         "to Citysee.tiny (the benchmark's self-test)")
    args = ap.parse_args()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found in the working directory")
    spec = load_json(spec_path)

    build()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    os.makedirs(RESULTS, exist_ok=True)
    wl = args.workload
    n_setups = 1 if args.trace else SETUPS[wl]
    inp, gen_times = generate(wl, args.seed, args.scale, n_setups)

    measure = MEASURE[wl]
    # The in-process run writes the reference outputs the checks compare
    # against; traced, it also writes the per-layer metrics and the spans.
    traced_walls = []
    if args.trace and wl != "serve-1225":
        # Traced runs alternate with untraced CLI runs, all timed from spawn
        # to exit, so a drift in the host's speed falls on both sides of
        # trace.overhead_ratio alike.  The last traced run's layers count.
        m = None
        for _ in range(TRACE_ROUNDS):
            t0 = time.perf_counter()
            run_tool("trace", wl, inp, 1)
            traced_walls.append(time.perf_counter() - t0)
            r = measure(inp, 0, 1)
            if m is None:
                m = r
            else:
                for k in ("walls", "rss", "outputs"):
                    m[k] += r[k]
    else:
        run_tool("trace", wl, inp, args.trace)
        # Traced, serve makes its open-loop passes, whose latencies are
        # per-layer metrics, and one saturated pass; tool.exe takes its
        # trace.overhead_ratio in process.  Untraced, it makes saturated
        # passes only: the end-to-end metrics come from those.
        seconds, reps = (0, 1) if args.trace else (args.seconds, MIN_REPS[wl])
        if wl == "serve-1225":
            m = measure(inp, seconds, reps, open_loop=bool(args.trace))
        else:
            m = measure(inp, seconds, reps)
    layers = load_json(os.path.join(inp, "layers.json")) if args.trace else {}
    attempted, failed, correct, problems = CHECK[wl](m)

    setup_s = statistics.median(gen_times)
    if wl == "serve-1225":
        setup_s += statistics.median(p["start_s"] for p in m["passes"])
    e2e = end_to_end(wl, m, setup_s)
    serve_view = serve_latencies(m) if wl == "serve-1225" and args.trace else {}
    for k in ("check.inproc_lines", "check.inproc_acked", "check.replay_lines",
              "check.sharded_lines"):
        if layers.get(k) is False:
            problems.append(f"traced run: {k} failed")
            correct = False

    # The load did not arrive on schedule when the generator itself lagged.
    valid = not any(p["rate"] and not p["discarded"] and late_p99_ms(p) > LATE_LIMIT_MS
                    for p in m.get("passes", []))

    if args.trace:
        metric_units = {x["name"]: x["unit"] for x in spec["per_layer"]}
        values = dict(layers)
        values.update({k: v for k, v in serve_view.items() if k in metric_units})
        if traced_walls:
            values["trace.overhead_ratio"] = \
                statistics.median(traced_walls) / statistics.median(m["walls"])
    else:
        metric_units = {x["name"]: x["unit"] for x in spec["end_to_end"]}
        values = {k: v for k, (v, _) in e2e.items()}
    metrics = {}
    for name, unit in metric_units.items():
        v = values.get(name)
        # A layer (or offered rate) this workload never exercises reads 0.
        metrics[name] = {"value": float(v) if v is not None else 0.0, "unit": unit}

    nproc = os.cpu_count()
    report = {
        "workload": wl, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "nproc": nproc, "valid": valid,
        "setup_runs_s": gen_times, "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "walls_s": m.get("walls") or [w for _, w in saturated_walls(m)],
        "traced_walls_s": traced_walls,
        "checkpoints": [p["checkpoints"] for p in m.get("passes", [])],
        "rss_mb": m.get("rss") or [p["peak_mb"] for p in m["passes"]],
        "serve": serve_view, "layers": layers, "problems": problems,
        "attempted": attempted, "failed": failed,
    }
    tag = f"{wl}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump(report, f, indent=1, default=str)
    if args.trace:
        shutil.copy(os.path.join(inp, "trace.json"), os.path.join(RESULTS, tag + ".trace.json"))

    print(f"workload {wl}  seed {args.seed}  nproc {nproc}  valid {valid}")
    for k, (v, unit) in e2e.items():
        print(f"  {k:28s} {v:14.4f} {unit}")
    for k, v in serve_view.items():
        unit = "ms" if "_ms" in k else "count"
        print(f"  {k:28s} {v if v is not None else float('nan'):14.4f} {unit}")
    for p in problems:
        print(f"  problem: {p}")
    for name, x in metrics.items():
        if not math.isfinite(x["value"]):
            correct = False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    # SIGTERM unwinds like an error, so every child is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    finally:
        stop_all()
