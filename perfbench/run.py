#!/usr/bin/env python3
"""The TAGLETS benchmark: one command for the whole system.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Builds the program from source (Release) into $CARGO_TARGET_DIR (default
.bench_build), runs one workload and prints, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. See
perfbench/README.md for the workloads, the metrics and how to read them.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_CORES = 4

# Workload shapes: TAGLETS_THREADS for the pipeline, warm repetitions,
# the serving path the latency metrics come from, and the length of its
# phases. Each workload spends its time on its own mechanism and runs the
# others briefly, as controls on which no change is predicted.
WORKLOADS = {
    "train": {"threads": 4, "warm": 2, "serving": "serve", "phases": 0.5},
    "train-1t": {"threads": 1, "warm": 2, "serving": "serve", "phases": 0.5},
    "serve": {"threads": 4, "warm": 1, "serving": "serve", "phases": 1.5},
    "fleet": {"threads": 4, "warm": 1, "serving": "fleet", "phases": 1.5},
}
# Open-loop rates (req/s) of the light and heavy phases, on either
# serving path. The heavy rate leaves the 256-deep queues room for a
# 25 ms host stall, so no request is shed at it.
LIGHT_RPS = 4000
HEAVY_RPS = 10000
# Closed-loop capacity steps: the capacity is the best of
# CAPACITY_STEPS, each keeping CAPACITY_WINDOW requests outstanding: a
# serving queue's capacity, which keeps either path busy without a
# refusal (128 left the fleet short of work).
CAPACITY_STEPS = 7
CAPACITY_WINDOW = 256
# Phase lengths as shares of --seconds; light and heavy are scaled by the
# workload's "phases" factor (serve at --seconds 10: 12000 light
# requests), capacity steps are not.
PHASES = {"light": 0.2, "heavy": 0.1, "step": 0.05}
# Pool lanes of every serving process, in-process server and fleet
# alike: taglets_run's default on a 4-core host.
SERVE_THREADS = 4
CHILD_TIMEOUT_S = 150
RUN_TIMEOUT_S = 170  # everything after the build


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def refuse(message):
    log("perfbench: refusing to run: " + message)
    sys.exit(2)


# ------------------------------------------------------------- build

def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure and build incrementally; returns binary paths."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        refuse("no TAGLETS sources next to perfbench/ (%s)" % ROOT)
    out = os.path.join(build_root(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as build_log:
        steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", out, "-j", str(MIN_CORES),
                  "--target", "perfbench_harness", "taglets_run"]]
        for cmd in steps:
            if subprocess.call(cmd, stdout=build_log, stderr=build_log,
                               cwd=ROOT, timeout=850) != 0:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                log("perfbench: build failed (%s)" % " ".join(cmd))
                sys.exit(1)
    return {"harness": os.path.join(out, "perfbench_harness"),
            "taglets_run": os.path.join(out, "taglets", "tools",
                                        "taglets_run")}


# -------------------------------------------------------- provenance

def git_state():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode != 0:
            return None, None
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
        return sha.stdout.strip(), bool(dirty.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return None, None


def source_digest():
    """Hash of every file the build reads, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if not f.endswith(".pyc"))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(harness, workload, seed, seconds, trace):
    build_info = json.loads(subprocess.run(
        [harness, "provenance"], capture_output=True, text=True, check=True,
        timeout=60).stdout.strip().splitlines()[-1])
    sha, dirty = git_state()
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "git_sha": sha, "git_dirty": dirty,
        "source_digest": source_digest(), **build_info,
        "threads": WORKLOADS[workload]["threads"],
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "taglets_env": {k: v for k, v in sorted(os.environ.items())
                        if k.startswith("TAGLETS_")},
    }


# ---------------------------------------------------------- children

class Run:
    """Scratch directory and child processes of one benchmark run; both
    are removed on exit, whatever happens."""

    def __init__(self, bins):
        self.bins = bins
        self.dir = os.path.join(build_root(), "perfbench-run-%d" % os.getpid())
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        # Relative to ROOT (the children's cwd) so socket paths stay short.
        self.rel = os.path.relpath(self.dir, ROOT)
        self.children = []

    def path(self, name):
        return os.path.join(self.rel, name)

    def env(self, threads):
        env = dict(os.environ)
        env["TAGLETS_THREADS"] = str(threads)
        env.pop("TAGLETS_TRACE", None)  # tracing is the benchmark's choice
        return env

    def spawn(self, args, threads, stdin=None, stdout=None):
        with open(os.path.join(self.dir, "stderr.log"), "a") as err:
            proc = subprocess.Popen(args, cwd=ROOT, env=self.env(threads),
                                    stdin=stdin, stdout=stdout, stderr=err,
                                    text=True)
        self.children.append(proc)
        return proc

    def stderr_tail(self):
        with open(os.path.join(self.dir, "stderr.log")) as f:
            return f.read()[-2000:]

    def run_json_lines(self, args, threads):
        """Run a child to completion. Returns its JSON stdout lines and
        the seconds from spawning it to its first line."""
        proc = self.spawn(args, threads, stdout=subprocess.PIPE)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        t0 = time.monotonic()
        lines, first_s = [], None
        try:
            for line in proc.stdout:
                if line.startswith("{"):
                    first_s = first_s or time.monotonic() - t0
                    lines.append(json.loads(line))
            proc.wait()
        finally:
            watchdog.cancel()
        if proc.returncode != 0:
            raise RuntimeError("%s exited %d:\n%s" % (
                args[1], proc.returncode, self.stderr_tail()))
        return lines, first_s

    def close(self):
        for proc in self.children:
            if proc.poll() is None:
                proc.kill()
        for proc in self.children:
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        shutil.rmtree(self.dir, ignore_errors=True)


class Generator:
    """A load-generating harness child speaking the line protocol."""

    def __init__(self, run, args, threads):
        self.run = run
        self.proc = run.spawn(args, threads, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE)
        self.read()  # the child's ready line

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("load generator exited early (code %s):\n%s" %
                               (self.proc.wait(timeout=20),
                                self.run.stderr_tail()))
        return json.loads(line)

    def ask(self, command):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def phase(self, rate, seconds, seed, reload_at=()):
        return self.ask("phase %r %r %d %s" % (
            rate, seconds, seed, " ".join("%r" % a for a in reload_at)))

    def quit(self):
        self.proc.stdin.write("quit\n")
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


def peak_rss_kb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Fleet:
    """taglets_run as a frontend over two shard processes."""

    def __init__(self, run, model):
        shards = [run.path("s%d.sock" % i) for i in range(2)]
        self.procs = [run.spawn([run.bins["taglets_run"], "--fleet-shard",
                                 "--load", model, "--fleet-endpoint",
                                 "unix:" + s], SERVE_THREADS,
                                stdout=subprocess.DEVNULL) for s in shards]
        self.endpoint = "unix:" + run.path("frontend.sock")
        groups = ";".join("g%d=unix:%s" % (i, s) for i, s in enumerate(shards))
        self.procs.append(run.spawn(
            [run.bins["taglets_run"], "--fleet-frontend", "--fleet-endpoint",
             self.endpoint, "--fleet-groups", groups], SERVE_THREADS,
            stdout=subprocess.DEVNULL))

    def peak_rss_kb(self):
        return sum(peak_rss_kb(p.pid) for p in self.procs)

    def stop(self):
        for p in self.procs:
            p.send_signal(signal.SIGTERM)
        for p in self.procs:
            p.wait(timeout=30)


# ---------------------------------------------------------- workload

def fingerprints_agree(fingerprints, harness):
    """Every repetition, and every run of this build on any workload,
    must produce the same end model: the determinism contract holds
    across repetitions, cache states and thread counts. The first run of
    each build records its fingerprint, keyed by a hash of the harness
    binary, so builds of different commits sharing one build directory
    are each checked against their own record."""
    if len(set(fingerprints)) != 1:
        log("end-model fingerprints disagree: %s" % fingerprints)
        return False
    with open(harness, "rb") as f:
        stamp = hashlib.sha256(f.read()).hexdigest()[:16]
    store = os.path.join(build_root(), "perfbench", "fingerprints.json")
    known = {}
    if os.path.isfile(store):
        with open(store) as f:
            known = json.load(f)
    first = stamp not in known
    if not check_recorded(known, stamp, fingerprints[0]):
        return False
    if first:
        with open(store, "w") as f:
            json.dump(known, f)
    return True


def check_recorded(known, stamp, fingerprint):
    """Checks `fingerprint` against the one recorded for build `stamp`
    in `known`, recording it when the build has none yet."""
    if stamp not in known:
        log("end-model fingerprint %s is the first recorded for build %s; "
            "later runs of this build are checked against it" % (
                fingerprint, stamp))
        known[stamp] = fingerprint
        return True
    if known[stamp] != fingerprint:
        log("end-model fingerprint %s differs from %s recorded earlier by "
            "build %s" % (fingerprint, known[stamp], stamp))
        return False
    return True


def least_disturbed(run_phase, steal_limit, ran):
    """Runs a phase, and once more if more than `steal_limit` of the
    machine was stolen meanwhile; the less disturbed run gives the figures
    (README.md, "Steal"). Every run is appended to `ran`, where its
    requests count in attempted and failed."""
    ran.append(run_phase())
    if ran[-1]["steal"] > steal_limit:
        log("  a phase had %.1f%% of the machine stolen and %d failed "
            "requests; running it again" % (100 * ran[-1]["steal"],
                                            stats.failures(ran[-1])))
        ran.append(run_phase())
        return min(ran[-2:], key=lambda p: p["steal"])
    return ran[-1]


def fixed_phases(gen, seconds, seed, steal_limit, reload=False):
    """The light and heavy phases through one load generator; with
    `reload` the model is hot-reloaded twice during the heavy phase.
    Returns light, heavy and every phase run."""
    heavy_s = PHASES["heavy"] * seconds
    reload_at = [heavy_s / 3, 2 * heavy_s / 3] if reload else []
    ran = []
    light = least_disturbed(lambda: gen.phase(
        LIGHT_RPS, PHASES["light"] * seconds, seed * 1000 + 1),
        steal_limit, ran)
    heavy = least_disturbed(lambda: gen.phase(
        HEAVY_RPS, heavy_s, seed * 1000 + 2, reload_at), steal_limit, ran)
    return light, heavy, ran


def capacity_steps(seconds, seed, new_generator, fleet_gen):
    """The closed-loop capacity steps (README.md, "Capacity"). In-process,
    each step runs in a fresh generator process from `new_generator()`;
    through the fleet, each runs on `fleet_gen` after a reload. Returns
    every step and the number of failed reloads."""
    steps, reloads_failed = [], 0
    for i in range(CAPACITY_STEPS):
        command = "saturate %r %d %d" % (PHASES["step"] * seconds,
                                         CAPACITY_WINDOW, seed * 1000 + 10 + i)
        if fleet_gen is None:
            gen = new_generator()
            steps.append(gen.ask(command))
            gen.quit()
        else:
            if not fleet_gen.ask("reload")["ok"]:
                reloads_failed += 1
            steps.append(fleet_gen.ask(command))
    return steps, reloads_failed


def describe(name, phase):
    s = stats.summarize(stats.latencies(phase))
    top = "p%g=%.4f ms" % (s["top_p"], s["top"]) if s["top_p"] else "-"
    log("  %-6s n=%d p50=%.4f p90=%.4f p99=%.4f ms, %s (>=10 beyond), "
        "lag_p99=%.4f ms, failed=%d (lost %d), %.1f%% of the machine "
        "stolen" % (name, s["n"], s["p50"], s["p90"], s["p99"], top,
                    stats.lag_p99(phase), stats.failures(phase),
                    phase["lost"], 100 * phase["steal"]))
    return s


def pipeline_layers(cold, untraced, traced):
    """Per-layer metrics of the traced repetition (and the cold set-up)."""
    sp = traced["spans"]
    nodes = sp["nodes"]
    covered = sum(traced[k] for k in
                  ("zsl_s", "run_s", "backbone_s", "world_s", "scads_s"))
    m = {
        "synth.world_s": (traced["world_s"], "s"),
        "scads.install_s": (traced["scads_s"], "s"),
        "backbone.load_s": (traced["backbone_s"], "s"),
        "backbone.pretrain_s": (cold["backbone_s"], "s"),
        "backbone.cache_bytes": (cold["cache_bytes"], "B"),
        "zsl.engine_s": (traced["zsl_s"], "s"),
        "pipeline.run_s": (traced["run_s"], "s"),
        "pipeline.critical_path_s": (sp["critical_path_s"], "s"),
        "pipeline.lane_busy_share": (
            sp["node_total_s"] / (traced["lanes"] * traced["run_s"]), "ratio"),
        "pipeline.covered_pct": (100.0 * covered / traced["total_s"], "%"),
        "nn.steps": (sp["nn_steps"], "count"),
        "nn.step_us": (1e6 * sp["nn_fit_s"] / max(1, sp["nn_steps"]), "us"),
        "parallel.tasks": (sp["parallel_tasks"], "count"),
        "trace.overhead_pct": (100.0 * (traced["total_s"] - untraced["total_s"])
                               / untraced["total_s"], "%"),
        "trace.spans": (sp["count"], "count"),
    }
    for node in ("selection", "transfer", "multitask", "fixmatch", "zsl-kg",
                 "ensemble", "distill"):
        key = node if node in ("selection", "ensemble", "distill") \
            else "module:" + node
        m["node.%s_s" % node] = (nodes.get(key, 0.0), "s")
    return m


def serving_layers(heavy, layers, micro, fleet_heavy, flayers):
    # Served requests only; a failed one is counted in `failed`.
    window = [v for r in fleet_heavy["reloads"]
              for v in fleet_heavy["latency_ms"][r["first"]:r["last"]]
              if v is not None]
    return {
        "tensor.gemm_gflops.train": (micro["gemm_gflops_train"], "GFLOP/s"),
        "tensor.gemm_gflops.serve": (micro["gemm_gflops_serve"], "GFLOP/s"),
        "servable.predict_us.b1": (micro["predict_us_b1"], "us"),
        "servable.predict_us.b16": (micro["predict_us_b16"], "us"),
        "serve.queue_wait_p50_ms": (layers["queue_wait_p50_ms"], "ms"),
        "serve.queue_wait_p99_ms": (layers["queue_wait_p99_ms"], "ms"),
        "serve.batch_mean": (layers["batch_mean"], "count"),
        "serve.rejected": (layers["rejected"], "count"),
        "fleet.network_p50_ms": (flayers["network_p50_ms"], "ms"),
        "fleet.queue_wait_p50_ms": (flayers["fleet_queue_wait_p50_ms"], "ms"),
        "fleet.compute_p50_ms": (flayers["compute_p50_ms"], "ms"),
        "fleet.reload_ms": (1e3 * statistics.median(
            [r["end_s"] - r["start_s"] for r in fleet_heavy["reloads"]]), "ms"),
        "fleet.reload_window_p99_ms": (
            stats.percentile(sorted(window), 99.0) if window else 0.0, "ms"),
        "fleet.retries": (flayers["retries"], "count"),
        "fleet.req_bytes": (flayers["req_bytes"], "B"),
        "fleet.resp_bytes": (flayers["resp_bytes"], "B"),
        "loadgen.lag_p99_ms": (stats.lag_p99(heavy), "ms"),
    }


def run_workload(bins, workload, seed, seconds, trace, steal_limit):
    shape = WORKLOADS[workload]
    threads = shape["threads"]
    primary = shape["serving"]
    harness = bins["harness"]
    run = Run(bins)
    try:
        # Set-up is the user's first run: a cold pipeline repetition fills
        # the empty benchmark-owned cache and distils the model the servers
        # load; then the workload's serving path starts. Warm repetitions
        # follow in the same process, each rebuilding world, SCADS, cached
        # backbone, ZSL engine and Controller::run from scratch; the traced
        # run has one and adds a traced one.
        model, inputs = run.path("model.bin"), run.path("inputs.bin")
        lines, setup_s = run.run_json_lines(
            [harness, "pipeline", "--cache", run.path("cache"),
             "--warm", str(1 if trace else shape["warm"]),
             "--save-model", model,
             "--save-inputs", inputs] + (["--traced"] if trace else []),
            threads)
        cold, traced = lines[0], lines[-1] if trace else None
        # The least disturbed warm repetitions (README.md, "Steal").
        warm = sorted((r for r in lines[1:] if not r["traced"]),
                      key=lambda r: r["steal"])[:shape["warm"]]
        correct = fingerprints_agree([r["fingerprint"] for r in lines], harness)
        log("%s, seed %d: end-model fingerprint %s, accuracy %.2f%%" % (
            workload, seed, cold["fingerprint"], cold["accuracy_pct"]))
        for r in lines[1:]:
            log("  %s repetition: %.3f s (%.1f%% of the machine stolen)" % (
                "traced" if r["traced"] else "warm", r["total_s"],
                100 * r["steal"]))
        attempted, failed = len(lines), 0

        gen_args = ["--model", model, "--inputs", inputs]

        def start_fleet():
            fleet = Fleet(run, model)
            return fleet, Generator(run, [harness, "fleet", "--connect",
                                          fleet.endpoint] + gen_args,
                                    SERVE_THREADS)

        def serve_generator():
            return Generator(run, [harness, "serve"] + gen_args, SERVE_THREADS)

        fleet = fgen = None
        t0 = time.monotonic()
        if primary == "serve":
            gen = serve_generator()
        else:
            fleet, fgen = start_fleet()
            gen = fgen
        setup_s += time.monotonic() - t0

        span = seconds * shape["phases"]
        # Every phase run counts in attempted and failed.
        light, heavy, counted = fixed_phases(gen, span, seed, steal_limit,
                                             primary == "fleet")
        # Peak memory through the fixed phases, which offer the same load
        # in every run.
        serving_rss_kb = heavy["peak_rss_kb"] if fleet is None \
            else fleet.peak_rss_kb()
        if trace:
            layers, micro = gen.ask("layers"), gen.ask("micro")
            fleet_heavy, flayers = heavy, layers
        if fleet is None:
            gen.quit()
        steps, reloads_failed = ([], 0) if trace else capacity_steps(
            seconds, seed, serve_generator, fgen)
        if trace and fleet is None:
            # Every traced run reports every per-layer metric, so the
            # fleet layers are measured here too, after the in-process
            # server quit.
            fleet, fgen = start_fleet()
            _, fleet_heavy, ran = fixed_phases(fgen, seconds * 0.5, seed,
                                               steal_limit, reload=True)
            counted += ran
            flayers = fgen.ask("layers")

        counted += steps
        for phase in counted:
            attempted += len(phase["latency_ms"]) + len(phase["reloads"])
            failed += stats.failures(phase) + phase["reloads_failed"]
        if primary == "fleet":  # the reload before each capacity step
            attempted += len(steps)
            failed += reloads_failed
        # A wrong label is a wrong output, not only a failed request.
        mismatches = sum(p["mismatch"] for p in counted)
        correct = correct and mismatches == 0

        if fleet is not None:
            fgen.quit()
            fleet.stop()

        light_s = describe("light", light)
        heavy_s = describe("heavy", heavy)
        for phase in steps:
            log("  capacity step: served %8.0f req/s, failed %d (lost %d), "
                "p50 %.3f ms from submission, %.1f%% stolen" % (
                    stats.served_rate(phase), stats.failures(phase),
                    phase["lost"],
                    stats.summarize(stats.latencies(phase))["p50"],
                    100 * phase["steal"]))
        if failed:
            log("  %d failed operations" % failed)

        if trace:
            m = pipeline_layers(cold, warm[0], traced)
            m.update(serving_layers(heavy, layers, micro, fleet_heavy, flayers))
            return correct, attempted, failed, m
        if workload.startswith("train"):
            peak_kb = lines[-1]["peak_rss_kb"]  # the process's high mark
        else:
            peak_kb = serving_rss_kb
        return correct, attempted, failed, {
            "setup_s": (setup_s, "s"),
            "train_s": (statistics.median(r["total_s"] for r in warm), "s"),
            "accuracy_pct": (cold["accuracy_pct"], "%"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "light_p50_ms": (light_s["p50"], "ms"),
            "heavy_p50_ms": (heavy_s["p50"], "ms"),
            "capacity_rps": (stats.capacity(steps), "1/s"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
        }
    finally:
        run.close()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        refuse("--seconds must be 1..60")
    cores = len(os.sched_getaffinity(0))
    if cores < MIN_CORES:
        refuse("%d cores available, the benchmark needs %d" % (cores, MIN_CORES))

    bins = build()
    # The harness's own check that a reply which overtakes an older one
    # is timed from its own arrival.
    selftest = subprocess.run([bins["harness"], "selftest"],
                              capture_output=True, text=True, timeout=60)
    if selftest.returncode != 0:
        log("perfbench: harness self-test failed: %s%s" % (
            selftest.stdout, selftest.stderr))
        return 1
    prov = provenance(bins["harness"], args.workload, args.seed, args.seconds,
                      args.trace)
    if prov["build_type"] != "Release" or not prov["ndebug"]:
        refuse("harness is a %s build (NDEBUG %s); only Release is measured" %
               (prov["build_type"], prov["ndebug"]))
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)

    def out_of_time(signum, frame):
        raise TimeoutError("run took over %d s" % RUN_TIMEOUT_S)

    signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(RUN_TIMEOUT_S)

    correct, attempted, failed, metrics = run_workload(
        bins, args.workload, args.seed, args.seconds, args.trace,
        prov["steal_limit"])
    for name, (value, unit) in metrics.items():
        print("%-28s %.6g %s" % (name, value, unit))
        if not math.isfinite(value):
            log("perfbench: %s was not measured (%s)" % (name, value))
            return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
