"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload loop-yolov5s --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a separate
traced run and prints the per-layer metrics.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is non-zero when any response differs from its reference.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: End-to-end metrics: name -> (unit, better).  BENCHMARK.json lists the same.
#: The report also prints ``latency_p50_ms``, ``latency_p99_ms`` and
#: ``error_ratio``, which BENCHMARK.json does not gate (see README.md).
END_TO_END = {
    "throughput_rps": ("1/s", "higher"),
    "success_ratio": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "compression_x": ("x", "higher"),
}

#: Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "core.prune_s": ("s", "lower"),
    "pipeline.compile_s": ("s", "lower"),
    "pipeline.save_s": ("s", "lower"),
    "pipeline.load_s": ("s", "lower"),
    "serving.start_s": ("s", "lower"),
    "cluster.spawn_s": ("s", "lower"),
    "engine.forward_ms.b1": ("ms", "lower"),
    "engine.forward_ms.b2": ("ms", "lower"),
    "engine.forward_ms.b4": ("ms", "lower"),
    "engine.forward_ms.b8": ("ms", "lower"),
    "engine.conv1x1_ms": ("ms", "lower"),
    "engine.conv3x3_ms": ("ms", "lower"),
    "engine.gather_ms": ("ms", "lower"),
    "engine.gemm_ms": ("ms", "lower"),
    "engine.epilogue_ms": ("ms", "lower"),
    "engine.other_ms": ("ms", "lower"),
    "engine.gflops": ("GFLOP/s", "higher"),
    "engine.dense_ratio": ("ratio", "higher"),
    "engine.pad_ratio": ("ratio", "higher"),
    "engine.arena_misses": ("count", "lower"),
    "serving.submit_us": ("us", "lower"),
    "serving.queue_wait_ms.p50": ("ms", "lower"),
    "serving.queue_wait_ms.p99": ("ms", "lower"),
    "serving.batch_size_mean": ("count", "higher"),
    "serving.exec_ms": ("ms", "lower"),
    "serving.rt_ms.p50": ("ms", "lower"),
    "cluster.rt_ms.p50": ("ms", "lower"),
    "cluster.hop_ms": ("ms", "lower"),
    "cluster.encode_us": ("us", "lower"),
    "cluster.decode_us": ("us", "lower"),
    "cluster.bytes_per_request": ("B", "lower"),
    "cluster.restarts": ("count", "lower"),
    "cluster.redispatches": ("count", "lower"),
    "gateway.rt_ms.p50": ("ms", "lower"),
    "gateway.hop_ms": ("ms", "lower"),
    "gateway.rejected": ("count", "lower"),
    "loadgen.late_p50_ms": ("ms", "lower"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "loadgen.cpu_s": ("s", "lower"),
    "obs.trace_overhead_ratio": ("ratio", "lower"),
}

#: Servers started per untraced run; set-up time is their median.
SETUP_REPEATS = 3
#: Seconds to wait for a server's set-up or its final report.
SERVER_TIMEOUT_S = 150.0
#: Seconds the traced run spends on each single-layer probe.
PROBE_SECONDS = 3.0


class ServerProcess:
    """One ``perfbench/server.py`` child and its line-based protocol."""

    def __init__(self, workload: str, seed: int, run_dir: Path, trace: int) -> None:
        run_dir.mkdir(parents=True)
        self.log_path = run_dir / "server.log"
        self.spawned_at = time.monotonic()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, str(ROOT / "perfbench" / "server.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--dir", str(run_dir), "--trace", str(trace)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                cwd=str(ROOT), start_new_session=True)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.process.stdout, selectors.EVENT_READ)
        self._pending = b""

    def read_event(self, name: str, timeout: float = SERVER_TIMEOUT_S) -> dict:
        """Block until the server emits event ``name``; returns its fields."""
        deadline = time.monotonic() + timeout
        while True:
            line, newline, rest = self._pending.partition(b"\n")
            if newline:
                self._pending = rest
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                if isinstance(event, dict) and event.get("event") == name:
                    return event
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._selector.select(remaining):
                raise RuntimeError(f"server sent no {name!r} event in {timeout:.0f}s"
                                   f"{self._log_tail()}")
            chunk = os.read(self.process.stdout.fileno(), 1 << 20)
            if not chunk:
                raise RuntimeError(f"server exited before its {name!r} event"
                                   f"{self._log_tail()}")
            self._pending += chunk

    def send(self, command: str) -> None:
        self.process.stdin.write(command.encode() + b"\n")
        self.process.stdin.flush()

    def stop(self) -> dict:
        """Ask for the final report, then wait for the server to exit."""
        self.send("stop")
        final = self.read_event("final")
        self.process.wait(SERVER_TIMEOUT_S)
        self.close()
        return final

    def close(self) -> None:
        """Kill the server and its workers if it still runs; release its pipes."""
        if self.process.poll() is None:
            os.killpg(self.process.pid, signal.SIGKILL)
            self.process.wait()
        self._selector.close()
        self.process.stdin.close()
        self.process.stdout.close()

    def _log_tail(self) -> str:
        tail = self.log_path.read_text().strip().splitlines()[-15:]
        return ("\nserver log:\n" + "\n".join(tail)) if tail else ""


def median_ms(values) -> float:
    return statistics.median(values) * 1e3


class Run:
    """One benchmark run of one workload: set-ups, phases, probes, accounting."""

    def __init__(self, workload, seed: int, seconds: float, trace: int,
                 run_dir: Path) -> None:
        from perfbench.workloads import camera_clocks

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.run_dir = run_dir
        self.frames = workload.frames_for_seed(seed)
        self.clocks = camera_clocks(seed)
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.setups = []
        self.servers = []
        self.client = None
        self.references = None
        self.artifact = None
        self.load_s = None
        self.dense_ok = None
        self.table_rows = None
        self.latency_ms = None

    # ------------------------------------------------------------------ set-up
    def set_up(self, index: int) -> dict:
        """Start a server and time it to its first correct response."""
        from perfbench.loads import monotonic_of, output_matches

        server = ServerProcess(self.workload.name, self.seed,
                               self.run_dir / f"server-{index}", self.trace)
        self.servers.append(server)
        ready = server.read_event("ready")
        if self.workload.uses_gateway:
            from repro.serving import GatewayClient

            self.client = GatewayClient("127.0.0.1", ready["port"])
            future = self.client.submit(self.frames[0])
            first = future.result(SERVER_TIMEOUT_S)
            answered_at = monotonic_of(future.resolved_at)
            self.load_references(ready["artifact"])
            first_ok = output_matches(first, self.references[0])
        else:
            answered_at = ready["first_response_at"]
            first_ok = ready["first_ok"]
            self.dense_ok = ready["dense_ok"]
        self.account(first_ok)
        self.setups.append(answered_at - server.spawned_at)
        return ready

    def account(self, ok: bool) -> None:
        """Count one checked response outside the measured phases."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatched += 1

    def load_references(self, artifact_path: str) -> None:
        """Load the served artifact and compute every frame's reference."""
        from perfbench.loads import fused_matches_dense
        from repro.pipeline import DeployableArtifact

        if self.artifact is None:
            started = time.perf_counter()
            self.artifact = DeployableArtifact.load(artifact_path)
            self.load_s = time.perf_counter() - started
            compiled = self.artifact.compiled
            self.references = [compiled.forward_raw(frame[None])
                               for frame in self.frames]
            self.dense_ok = fused_matches_dense(compiled, self.frames[0],
                                                self.references[0])

    def stop(self, server: ServerProcess) -> dict:
        """Disconnect, then stop ``server``; returns its final report."""
        if self.client is not None:
            self.client.shutdown()
            self.client = None
        return server.stop()

    # ------------------------------------------------------------------ phases
    def measure(self, server: ServerProcess, seconds: float):
        """One measured phase of the workload's load shape."""
        from perfbench.loads import Phase, camera_schedule, closed_loop, open_loop
        from perfbench.workloads import camera_frame

        loop = self.workload.loop
        if loop == "closed":
            phase = closed_loop(self.client, self.frames, self.references, seconds)
        elif loop == "open":
            schedule = camera_schedule(self.clocks, seconds)
            phase = open_loop(self.client, schedule, camera_frame, self.frames,
                              self.references)
        else:
            server.send(f"replay {seconds}")
            phase = Phase(**server.read_event(
                "phase", seconds + SERVER_TIMEOUT_S)["phase"])
        self.attempted += phase.attempted
        self.failed += phase.failed
        self.mismatched += phase.mismatched
        return phase

    def end_to_end(self) -> dict:
        from perfbench.loads import p99_or_none, percentile

        for index in range(SETUP_REPEATS):
            server_ready = self.set_up(index)
            if index < SETUP_REPEATS - 1:
                self.stop(self.servers[-1])
        self.account(self.dense_ok)
        server = self.servers[-1]
        phase = self.measure(server, self.seconds)
        final = self.stop(server)
        if not phase.completed:
            raise RuntimeError(f"no correct response: {phase.failed} of "
                               f"{phase.attempted} requests failed, "
                               f"{phase.mismatched} with wrong outputs")
        p99 = p99_or_none(phase.latencies)
        self.latency_ms = (percentile(phase.latencies, 50) * 1e3,
                           None if p99 is None else p99 * 1e3, phase.completed)
        return {
            "throughput_rps": (phase.throughput_rps, phase.completed),
            "success_ratio": (phase.completed / phase.attempted, phase.attempted),
            "setup_s": (statistics.median(self.setups), len(self.setups)),
            "peak_rss_mb": (sum(final["rss_kb"]) / 1024.0, len(final["rss_kb"])),
            "compression_x": (server_ready["compression_x"], 1),
        }

    def per_layer(self) -> dict:
        from perfbench.loads import percentile
        from perfbench.probes import codec_probe, engine_probe, pad_ratio

        ready = self.set_up(0)
        self.account(self.dense_ok)
        server = self.servers[0]
        plain = self.measure(server, self.seconds / 2)
        server.send("trace")
        server.read_event("tracing")
        traced = self.measure(server, self.seconds / 2)
        final = self.stop(server)
        self.load_references(ready["artifact"])

        timings = ready["timings"]
        values = {
            "core.prune_s": (timings["prune_s"], 1),
            "pipeline.compile_s": (timings["compile_s"], 1),
            "pipeline.save_s": (timings["save_s"], 1),
            "pipeline.load_s": (self.load_s, 1),
            "serving.start_s": (timings["start_s"], 1),
        }
        engine, self.table_rows = engine_probe(self.artifact, self.frames, PROBE_SECONDS)
        values.update({name: (value, 1) for name, value in engine.items()})

        report = final["target_report"]
        service = (report["worker_services"]["worker-0"]
                   if self.workload.uses_cluster else report)
        values["engine.pad_ratio"] = (pad_ratio(service["batches"]["size_histogram"]),
                                      service["batches"]["count"])

        spans = span_samples(final["traces"])
        submits = traced.submit_seconds or final["submit_seconds"]
        values.update({
            "serving.submit_us": (statistics.median(submits) * 1e6, len(submits)),
            "serving.queue_wait_ms.p50": (median_ms(spans["queue_wait"]),
                                          len(spans["queue_wait"])),
            "serving.queue_wait_ms.p99": (percentile(spans["queue_wait"], 99) * 1e3,
                                          len(spans["queue_wait"])),
            "serving.batch_size_mean": (statistics.mean(spans["batch_sizes"]),
                                        len(spans["batch_sizes"])),
            "serving.exec_ms": (median_ms(spans["exec"]), len(spans["exec"])),
            "serving.rt_ms.p50": (median_ms(spans["service_rt"]),
                                  len(spans["service_rt"])),
        })
        service_rt = values["serving.rt_ms.p50"][0]
        target_rt = final["round_trips"]
        if self.workload.uses_cluster:
            cluster = report["cluster"]
            values.update({
                "cluster.spawn_s": (timings["spawn_s"], 1),
                "cluster.rt_ms.p50": (median_ms(target_rt), len(target_rt)),
                "cluster.hop_ms": (median_ms(target_rt) - service_rt, len(target_rt)),
                "cluster.restarts": (cluster["restarts"], 1),
                "cluster.redispatches": (cluster["redispatched"], 1),
            })
        if self.workload.uses_gateway:
            codec = codec_probe(self.frames[0], self.references[0], PROBE_SECONDS / 3)
            values.update({name: (value, 1) for name, value in codec.items()})
            client_rt = median_ms(traced.round_trips)
            rejected = sum(final["gateway_report"]["requests"]["rejected"].values())
            values.update({
                "gateway.rt_ms.p50": (client_rt, len(traced.round_trips)),
                "gateway.hop_ms": (client_rt - median_ms(target_rt), len(target_rt)),
                "gateway.rejected": (rejected, 1),
            })
        if plain.late:
            values["loadgen.late_p50_ms"] = (median_ms(plain.late), len(plain.late))
            values["loadgen.late_p99_ms"] = (percentile(plain.late, 99) * 1e3,
                                             len(plain.late))
        values["loadgen.cpu_s"] = (plain.cpu_s, 1)
        values["obs.trace_overhead_ratio"] = (
            statistics.median(traced.latencies) / statistics.median(plain.latencies),
            traced.completed)
        # A layer the workload bypasses costs it nothing: report it as 0.
        for name in PER_LAYER:
            values.setdefault(name, (0.0, 0))
        return values

    def close(self) -> None:
        if self.client is not None:
            self.client.shutdown()
        for server in self.servers:
            server.close()


def span_samples(traces) -> dict:
    """Queue wait, batch execution and service round trip from program spans.

    Queue wait runs from admission until the request's batch is assembled, so
    it includes the batcher's coalescing timer.
    """
    queue_wait, service_rt, batches = [], [], {}
    for spans in traces:
        by_name = {name: (start, end, batch) for name, start, end, batch in spans}
        waited = by_name.get("queue-wait")
        assembled = by_name.get("batch-assembly")
        executed = by_name.get("worker-execute")
        post = by_name.get("postprocess")
        if waited and assembled:
            queue_wait.append(assembled[1] - waited[0])
        if executed:
            batches[executed[0], executed[1]] = executed[2] or 1
        if waited and post:
            service_rt.append(post[1] - waited[0])
    return {
        "queue_wait": queue_wait,
        "service_rt": service_rt,
        "exec": [end - start for start, end in batches],
        "batch_sizes": list(batches.values()),
    }


def result_line(correct: bool, attempted: int, failed: int, values: dict,
                table: dict) -> str:
    """The final JSON line: exactly the metrics of ``table``, with units."""
    missing = set(table) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(values[name][0]), "unit": table[name][0]}
                    for name in table},
    })


def print_report(run: Run, values: dict, table: dict, host: dict) -> None:
    workload = run.workload
    print(f"perfbench {workload.name}: {workload.model} at {workload.image_size}x"
          f"{workload.image_size}, {workload.loop} loop, path {workload.path}, "
          f"seed {run.seed}, {run.seconds:g}s, trace {run.trace}")
    print("host " + json.dumps(host))
    print(f"{'metric':<28} {'value':>14} {'unit':<8} {'n':>7}")
    for name, (unit, _) in table.items():
        value, count = values[name]
        print(f"{name:<28} {value:>14.6g} {unit:<8} {count:>7}")
    print("not gated by BENCHMARK.json:")
    if run.latency_ms is not None:
        from perfbench.loads import P99_MIN_SAMPLES
        from perfbench.workloads import LATENCY_LIMIT_MS

        p50, p99, count = run.latency_ms
        print(f"{'latency_p50_ms':<28} {p50:>14.6g} {'ms':<8} {count:>7}")
        if p99 is None:
            print(f"{'latency_p99_ms':<28} {'unsupported':>14} {'ms':<8} {count:>7}"
                  f"  (needs {P99_MIN_SAMPLES} completions)")
        else:
            print(f"{'latency_p99_ms':<28} {p99:>14.6g} {'ms':<8} {count:>7}")
            if workload.loop != "replay":
                verdict = "met" if p99 <= LATENCY_LIMIT_MS else "MISSED"
                print(f"latency limit {LATENCY_LIMIT_MS:.1f} ms at p99: {verdict}")
    print(f"{'error_ratio':<28} {run.failed / run.attempted:>14.6g} {'ratio':<8} "
          f"{run.attempted:>7}  ({run.failed} failed, {run.mismatched} wrong outputs)")
    if run.table_rows and workload.model == "yolov5s":
        print_paper_vs_host(run.table_rows)


def print_paper_vs_host(rows) -> None:
    print("paper vs host: modeled Jetson TX2 (repro.hardware) vs measured fused "
          "engine, batch 1, per conv")
    print(f"{'layer':<30} {'kernel':>6} {'kept':>9} {'MMACs':>8} {'tx2_ms':>8} "
          f"{'host_ms':>8} {'GFLOP/s':>8}")
    for row in rows:
        print(f"{row['layer']:<30.30} {row['kernel']:>6} {row['kept_columns']:>9} "
              f"{row['macs'] / 1e6:>8.3f} {row['tx2_ms']:>8.4f} "
              f"{row['host_ms']:>8.4f} {row['gflops']:>8.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.probes import cpu_times, host_fingerprint, steal_share
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    host = host_fingerprint()
    cpu_before = cpu_times()
    run_dir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, run_dir)
    try:
        if args.trace:
            values, table = run.per_layer(), PER_LAYER
        else:
            values, table = run.end_to_end(), END_TO_END
    finally:
        run.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            run_dir.parent.rmdir()
    host["loadavg_after"] = list(os.getloadavg())
    host["steal_share"] = steal_share(cpu_before, cpu_times())
    correct = run.mismatched == 0
    print_report(run, values, table, host)
    print(result_line(correct, run.attempted, run.failed, values, table))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
