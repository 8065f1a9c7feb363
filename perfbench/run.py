#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of ``hyperhammer-sim``.

Builds the release binary from the checkout this file sits in, then
drives it the way users do, from one single-threaded closed-loop client
(each job is sent only after the previous one finished):

* cold CLI path: a fresh ``campaign --json --jobs 1`` process per job;
* warm server path: one ``serve --spool`` child over loopback HTTP, one
  keep-alive connection at a time, jobs submitted with ``"jobs": 1``.

Every timed job's bytes are compared with reference NDJSON that
``campaign --json --jobs 1`` produced before timing began.

Usage (from the checkout root):

    python3 perfbench/run.py --workload tiny_attack --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 1`` runs the traced per-layer run instead (see README.md).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it name every
metric with its unit, the output digest and the run metadata.
"""

import argparse
import json
import os
import re
import shutil
import socket
import subprocess
import sys
import time

import benchlib as bl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BITS = 12
# Set-ups per run, by path: cold CLI jobs, or server spawns with a
# warm-up job each. setup_s is their median. A server set-up takes
# ~10 ms, mostly process start and the spool's fsyncs, whose latency
# varies widely from one set-up to the next, so it gets many more.
SETUPS = {"cli": 5, "server": 31}
# The tail needs more than ten samples; the timed loop runs at least
# this many jobs even when --seconds is short.
MIN_JOBS = 11
VARIANT_MATRIX = ["micro", "micro@balloon", "micro@xen", "micro@pthammer", "micro@gbhammer"]


class Workload:
    def __init__(self, path, scenarios, seeds, attempts, status):
        self.path = path  # "cli" or "server"
        self.scenarios = scenarios
        self.seeds = seeds
        self.attempts = attempts
        self.status = status  # GET /jobs/{id} after each job

    @property
    def cells(self):
        return len(self.scenarios) * self.seeds


WORKLOADS = {
    # Cold CLI, tiny machine: vIOMMU exhaustion, buddy churn, EPT
    # splits and hammer-plan reuse dominate; process start is small.
    "tiny_attack": Workload("cli", ["tiny"], seeds=3, attempts=2, status=False),
    # Warm server, every variant of the micro machine: no exploitable
    # flips, so per-cell set-up, VM lifecycle, plan compiles and the
    # variant paths dominate.
    "micro_matrix": Workload("server", VARIANT_MATRIX, seeds=2, attempts=50, status=False),
    # Warm server, ~2 ms jobs: HTTP, spec decoding, queue, template
    # cache, chunked streaming and the spool do the work.
    "server_small_jobs": Workload("server", ["micro@xen"], seeds=4, attempts=1, status=True),
}

END_TO_END = [
    ("cells_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]

# Per-layer metrics: (name, unit). The traced binary reports all but
# the cli.process_overhead_ms and server.* ones, which this file times.
PER_LAYER = [
    ("template.build_ms", "ms"),
    ("template.instantiate_ms", "ms"),
    ("hv.create_vm_ms", "ms"),
    ("hv.destroy_vm_ms", "ms"),
    ("hv.vm_reboots_per_cell", "count"),
    ("hv.viommu_maps_per_attempt", "count"),
    ("hv.ept_splits_per_attempt", "count"),
    ("buddy.allocs_per_cell", "count"),
    ("buddy.splits_per_cell", "count"),
    ("buddy.merges_per_cell", "count"),
    ("dram.hammer_calls_per_cell", "count"),
    ("dram.plan_compiles_per_cell", "count"),
    ("dram.plan_hit_ratio", "ratio"),
    ("dram.activations_per_cell", "count"),
    ("profile.ms_per_cell", "ms"),
    ("steering.exhaust_noise_ms", "ms"),
    ("steering.release_ms", "ms"),
    ("steering.spray_ept_ms", "ms"),
    ("exploit.stamp_magic_ms", "ms"),
    ("exploit.run_ms", "ms"),
    ("driver.relocate_ms", "ms"),
    ("driver.attempt_ms", "ms"),
    ("driver.cell_other_ms", "ms"),
    ("variant.virtio-mem.cell_ms", "ms"),
    ("variant.balloon.cell_ms", "ms"),
    ("variant.xen.cell_ms", "ms"),
    ("variant.pthammer.cell_ms", "ms"),
    ("variant.gbhammer.cell_ms", "ms"),
    ("cli.cell_line_us", "us"),
    ("cli.process_overhead_ms", "ms"),
    ("server.submit_ms", "ms"),
    ("server.first_line_ms", "ms"),
    ("server.stream_ms", "ms"),
    ("server.status_ms", "ms"),
    ("server.spool_bytes_per_job", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("sim.attempts_per_cell", "count"),
    ("sim.successes_per_job", "count"),
    ("sim.hours_per_cell", "h"),
]


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def now_ms():
    return time.perf_counter() * 1e3


# ---------------------------------------------------------------- build


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Builds the CLI binary and the traced-run binary (release)."""
    for needed in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise BenchError(f"not a source checkout: {needed} is missing")
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    commands = [
        ["cargo", "build", "--release", "--offline", "-p", "hyperhammer-cli",
         "--bin", "hyperhammer-sim"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "trace", "Cargo.toml")],
    ]
    for cmd in commands:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "hyperhammer-sim"), os.path.join(release, "hh-perfbench-trace")


# ------------------------------------------------------------ cold CLI


RSS_LINE = re.compile(rb"campaign: peak RSS (\d+) KiB")


def grid_args(wl, seed):
    """The grid flags the CLI and the traced binary share."""
    return ["--scenarios", ",".join(wl.scenarios), "--seeds", str(wl.seeds),
            "--attempts", str(wl.attempts), "--bits", str(BITS), "--base-seed", str(seed)]


def cli_args(sim, wl, seed):
    return [sim, "campaign", "--json", "--jobs", "1"] + grid_args(wl, seed)


def cli_job(sim, wl, seed):
    """One cold CLI job: ``(wall ms, exit code, stdout, peak RSS KiB)``."""
    start = now_ms()
    done = subprocess.run(cli_args(sim, wl, seed), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    ms = now_ms() - start
    match = RSS_LINE.search(done.stderr)
    return ms, done.returncode, done.stdout, int(match.group(1)) if match else None


def matches(expected, got, what):
    """Byte-compares a job's output with the reference; reports where a
    mismatch starts."""
    offset = bl.first_difference(expected, got)
    if offset is not None:
        print(f"{what}: output differs from the reference at byte {offset}", file=sys.stderr)
    return offset is None


def reference_output(sim, wl, seed):
    _, code, out, _ = cli_job(sim, wl, seed)
    if code != 0:
        raise BenchError(f"reference campaign exited with {code}")
    return out


# --------------------------------------------------------- warm server


class Client:
    """Closed-loop HTTP/1.1 client holding one keep-alive connection.

    The server closes the connection after every stream, so the next
    request opens a fresh one.
    """

    def __init__(self, addr):
        host, port = addr.rsplit(":", 1)
        self.addr = (host, int(port))
        self.sock = None
        self.reader = None

    def close(self):
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = self.reader = None

    def _send(self, method, path, body=b""):
        if self.sock is None:
            self.sock = socket.create_connection(self.addr, timeout=150)
            # The client sends each request in one write; no Nagle delay
            # on its side, so any stall measured is the server's.
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.reader = self.sock.makefile("rb")
        head = f"{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {len(body)}\r\n"
        if body:
            head += "Content-Type: application/json\r\n"
        self.sock.sendall(head.encode() + b"\r\n" + body)

    def request(self, method, path, body=b""):
        self._send(method, path, body)
        status, headers = bl.read_head(self.reader)
        data = bl.read_sized_body(self.reader, headers)
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, data

    def stream(self, path):
        """GET a chunked NDJSON stream: ``(status, body, first_ms, end_ms)``
        with times from ``now_ms``."""
        self._send("GET", path)
        status, headers = bl.read_head(self.reader)
        first = None
        parts = []
        if "chunked" in headers.get("transfer-encoding", ""):
            for chunk in bl.read_chunks(self.reader):
                if first is None:
                    first = now_ms()
                parts.append(chunk)
        else:
            parts.append(bl.read_sized_body(self.reader, headers))
        end = now_ms()
        self.close()
        return status, b"".join(parts), first if first is not None else end, end


class Server:
    """A ``serve --spool`` child on an ephemeral loopback port."""

    def __init__(self, sim, spool):
        os.makedirs(spool, exist_ok=True)
        self.client = None
        self.proc = subprocess.Popen([sim, "serve", "--addr", "127.0.0.1:0", "--spool", spool],
                                     stdout=subprocess.PIPE)
        line = self.proc.stdout.readline().decode().strip()
        if not line.startswith("listening on "):
            self.stop()
            raise BenchError(f"server did not start: {line!r}")
        self.client = Client(line[len("listening on "):])

    def proc_field(self, name, field):
        """A numeric field of ``/proc/<pid>/<name>``."""
        try:
            with open(f"/proc/{self.proc.pid}/{name}") as f:
                for line in f:
                    if line.startswith(field + ":"):
                        return int(line.split()[1])
        except OSError as e:
            raise BenchError(f"cannot read /proc/{self.proc.pid}/{name}: {e}") from e
        raise BenchError(f"/proc/{self.proc.pid}/{name} has no {field} field")

    def stop(self):
        """Shuts the server down over HTTP (killing it if that fails)
        and waits for it to exit."""
        if self.client is None:
            self.proc.kill()
        elif self.proc.poll() is None:
            self.client.close()
            try:
                self.client.request("POST", "/shutdown")
            except (OSError, bl.HttpError):
                self.proc.kill()
            self.client.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def spec_json(wl, seed):
    return json.dumps({"scenarios": wl.scenarios, "seeds": wl.seeds, "base_seed": seed,
                       "attempts": wl.attempts, "bits": BITS, "jobs": 1}).encode()


def server_job(client, body, with_status):
    """Submit, stream to the last byte, optionally GET the job status.

    Returns the job's timings and streamed bytes; raises on any HTTP or
    job error.
    """
    start = now_ms()
    status, reply = client.request("POST", "/jobs", body)
    submitted = now_ms()
    if status != 202:
        raise bl.HttpError(f"POST /jobs answered {status}: {reply!r}")
    job_id = json.loads(reply)["id"]
    status, data, first, end = client.stream(f"/jobs/{job_id}/stream")
    if status != 200:
        raise bl.HttpError(f"stream answered {status}")
    result = {"job_ms": end - start, "submit_ms": submitted - start,
              "first_line_ms": first - submitted, "stream_ms": end - submitted,
              "data": data}
    if with_status:
        asked = now_ms()
        status, reply = client.request("GET", f"/jobs/{job_id}")
        result["status_ms"] = now_ms() - asked
        # The stream ends with the last cell's line, which can be a
        # moment before the job is marked done.
        info = json.loads(reply) if status == 200 else {}
        if info.get("status") not in ("running", "done") or info.get("completed") != info.get("cells"):
            raise bl.HttpError(f"job {job_id} status {status}: {reply!r}")
    return result


def start_server(sim, spool, body, expected):
    """Spawns a server and runs the untimed warm-up job.

    Returns ``(server, setup seconds)``: from spawn to the warm-up job's
    last byte.
    """
    start = now_ms()
    server = Server(sim, spool)
    try:
        warm = server_job(server.client, body, with_status=False)
    except (OSError, bl.HttpError, ValueError):
        server.stop()
        raise
    setup_s = (now_ms() - start) / 1e3
    if not matches(expected, warm["data"], "warm-up job"):
        server.stop()
        raise BenchError("warm-up job bytes differ from the reference")
    return server, setup_s


# -------------------------------------------------------------- results


def metadata(name, seed, seconds, trace, jobs_timed, warmups):
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "build_profile": "release",
        "commit": commit(),
        "source_digest": source_digest(),
        "campaign_workers": 1,
        "client_threads": 1,
        "client_connections": 1,
        "jobs_timed": jobs_timed,
        "warmup_jobs_excluded": warmups,
    }


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
    except OSError:
        return None
    return done.stdout.decode().strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, so runs of a
    checkout that is not a git repository can still be told apart."""
    files = [os.path.join(ROOT, "Cargo.toml")]
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".rs", ".toml", ".py"))]
    data = bytearray()
    for path in files:
        with open(path, "rb") as f:
            data += os.path.relpath(path, ROOT).encode() + b"\0" + f.read() + b"\0"
    return bl.digest(bytes(data))


def emit(name, metrics, units, attempted, failed, meta, digest):
    """Prints the readable lines, then returns the result object."""
    for metric, unit in units:
        print(f"{name} {metric} {metrics[metric]:.6g} {unit}")
    print(f"{name} failed_frac {failed / attempted:.6g} ({failed}/{attempted} jobs)")
    print(f"digest {name} {digest}")
    print("meta " + json.dumps(meta, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units},
    }


# ------------------------------------------------------------ workloads


def run_timed(name, wl, seed, seconds, sim, rundir):
    """The end-to-end run: set-ups, then closed-loop timed jobs."""
    jobs = []
    failed = 0
    rss_kib = []
    if wl.path == "cli":
        setups = []
        reference = None
        for _ in range(SETUPS["cli"]):
            ms, code, out, _ = cli_job(sim, wl, seed)
            if reference is None:
                reference = out
            if code != 0 or not matches(reference, out, "set-up job"):
                raise BenchError("set-up CLI job failed or differs from the first")
            setups.append(ms / 1e3)
        deadline = now_ms() + seconds * 1e3
        while len(jobs) < MIN_JOBS or now_ms() < deadline:
            ms, code, out, rss = cli_job(sim, wl, seed)
            jobs.append(ms)
            if code != 0 or not matches(reference, out, f"{name} job {len(jobs)}"):
                failed += 1
            elif rss is None:
                raise BenchError("a CLI job printed no `campaign: peak RSS` line")
            else:
                rss_kib.append(rss)
        if not rss_kib:
            raise BenchError("no CLI job succeeded, so peak RSS is unknown")
        peak_rss_mib = bl.median(rss_kib) / 1024
        digest = bl.digest(reference)
    else:
        out = reference_output(sim, wl, seed)
        expected = bl.cell_lines(out, wl.cells)
        digest = bl.digest(out)
        body = spec_json(wl, seed)
        setups = []
        server = None
        try:
            for i in range(SETUPS["server"]):
                server, setup_s = start_server(sim, os.path.join(rundir, f"spool{i}"), body,
                                               expected)
                setups.append(setup_s)
                if i < SETUPS["server"] - 1:
                    server.stop()
            deadline = now_ms() + seconds * 1e3
            hwm = None
            while len(jobs) < MIN_JOBS or now_ms() < deadline:
                if len(jobs) == MIN_JOBS:
                    # After a fixed job count: the server keeps every
                    # finished job, so a later reading would grow with
                    # the job rate and penalise a faster server.
                    hwm = server.proc_field("status", "VmHWM")
                try:
                    job = server_job(server.client, body, wl.status)
                except (OSError, bl.HttpError, ValueError) as e:
                    print(f"{name}: job failed: {e}", file=sys.stderr)
                    server.client.close()
                    jobs.append(None)
                    failed += 1
                    continue
                jobs.append(job["job_ms"])
                if not matches(expected, job["data"], f"{name} job {len(jobs)}"):
                    failed += 1
            if hwm is None:
                hwm = server.proc_field("status", "VmHWM")
            peak_rss_mib = hwm / 1024
        finally:
            if server is not None:
                server.stop()
    attempted = len(jobs)
    times = [ms for ms in jobs if ms is not None]
    p50 = bl.median(times)
    tail_ms, tail_pct, tail_n = bl.tail(times)
    metrics = {
        "cells_per_s": wl.cells / (p50 / 1e3),
        "job_ms_p50": p50,
        "job_ms_tail": tail_ms,
        "setup_s": bl.median(setups),
        "peak_rss_mib": peak_rss_mib,
    }
    print(f"{name} job_ms_tail is p{tail_pct:.1f} of {tail_n} jobs")
    meta = metadata(name, seed, seconds, 0, attempted, len(setups))
    meta.update(tail_percentile=tail_pct, tail_samples=tail_n,
                job_ms_quartiles=[round(q, 3) for q in bl.quartiles(times)],
                setup_samples=[round(s, 6) for s in setups])
    return emit(name, metrics, END_TO_END, attempted, failed, meta, digest)


def run_traced(name, wl, seed, seconds, sim, tracer, rundir):
    """The traced per-layer run: in-process layer spans and counters from
    the traced binary, CLI and server spans timed here."""
    out = reference_output(sim, wl, seed)
    digest = bl.digest(out)
    ref_path = os.path.join(rundir, "reference.ndjson")
    with open(ref_path, "wb") as f:
        f.write(out)
    done = subprocess.run(
        [tracer, "--seconds", str(0.6 * seconds), "--reference", ref_path] + grid_args(wl, seed),
        stdout=subprocess.PIPE)
    if done.returncode != 0:
        raise BenchError(f"traced run failed (exit {done.returncode})")
    traced = json.loads(done.stdout.decode().splitlines()[-1])
    metrics = dict(traced["metrics"])
    attempted = failed = 0

    # Cold CLI: process overhead is job wall time minus the cells' time,
    # each from a fresh process. Host noise comes in regimes lasting
    # seconds, so the two run back to back (in alternating order) and
    # the overhead is the median of the paired differences.
    overheads = []
    cells_only = [tracer, "--cells-only", "--reference", ref_path] + grid_args(wl, seed)
    deadline = now_ms() + 0.15 * seconds * 1e3
    while len(overheads) < 3 or now_ms() < deadline:
        pair = {}
        for side in ("cli", "cells") if len(overheads) % 2 == 0 else ("cells", "cli"):
            if side == "cli":
                ms, code, got, _ = cli_job(sim, wl, seed)
                pair["cli"] = ms
                attempted += 1
                failed += int(code != 0 or not matches(out, got, f"{name} CLI job"))
            else:
                done = subprocess.run(cells_only, stdout=subprocess.PIPE)
                if done.returncode != 0:
                    raise BenchError(f"cells-only run failed (exit {done.returncode})")
                pair["cells"] = json.loads(done.stdout.decode().splitlines()[-1])["grid_cells_ms"]
        overheads.append(pair["cli"] - pair["cells"])
    metrics["cli.process_overhead_ms"] = bl.median(overheads)

    # Warm server: request spans, and spool bytes as the server's
    # write(2) byte count per job (stream bytes go out through send(2)
    # and are not counted).
    expected = bl.cell_lines(out, wl.cells)
    body = spec_json(wl, seed)
    server, _ = start_server(sim, os.path.join(rundir, "spool"), body, expected)
    spans = {"submit_ms": [], "first_line_ms": [], "stream_ms": [], "status_ms": []}
    try:
        written = server.proc_field("io", "wchar")
        deadline = now_ms() + 0.25 * seconds * 1e3
        jobs = 0
        while jobs < 3 or now_ms() < deadline:
            job = server_job(server.client, body, with_status=True)
            jobs += 1
            attempted += 1
            failed += int(not matches(expected, job["data"], f"{name} server job"))
            for key, samples in spans.items():
                samples.append(job[key])
        after = server.proc_field("io", "wchar")
    finally:
        server.stop()
    for key, samples in spans.items():
        metrics["server." + key] = bl.median(samples)
    metrics["server.spool_bytes_per_job"] = (after - written) / jobs

    meta = metadata(name, seed, seconds, 1, attempted, 2)
    meta.update(traced_rounds=traced["rounds"], traced_cells=traced["workload_cells"],
                probe_cells=traced["probe_cells"], span_samples=traced["samples"],
                span_sources=traced["span_sources"],
                replay_fidelity=traced["fidelity"])
    return emit(name, metrics, PER_LAYER, max(attempted, 1), failed, meta, digest)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")

    rundir = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    try:
        sim, tracer = build()
        os.makedirs(rundir, exist_ok=True)
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            wl = WORKLOADS[name]
            if args.trace:
                results[name] = run_traced(name, wl, args.seed, args.seconds, sim, tracer,
                                           rundir)
            else:
                results[name] = run_timed(name, wl, args.seed, args.seconds, sim, rundir)
    except (BenchError, OSError, bl.HttpError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(rundir))
        except OSError:
            pass  # another run still uses it
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
