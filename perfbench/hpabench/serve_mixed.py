"""`serve-mixed`: `hpa serve --jobs 1 --journal-dir <dir>`, the durable
deployment, driven closed loop by one client with one job in flight.

The trace mixes three kinds of job, visited in a seeded order each round:

- misses: full-detail tiny and default jobs, and the three RISC-V fixture
  ELFs as binary jobs. The seed is part of the cache key even in full
  detail, so a fresh seed forces a miss without changing the work;
- hits on small programs (tiny full-detail jobs, about a millisecond);
- hits on Long sampled programs (mcf, crafty, eon), which cost far more
  because submit rebuilds the workload and hashes it into the cache key.

The two kinds of hit load the submit path differently, so a fix for one
shows against the other. Set-up populates the hit targets, then restarts
the daemon several times: `setup_s` is daemon start through journal replay
to a ready `/health`, each start bracketed by calibration runs (see
`stats.Bracketed`) as the other workloads' operations are.

Every job kind repeats some fifty times a run, so its host time is its
fastest repetition. The jobs are not bracketed: they run on the daemon's
threads beside the client's polling, and the single-threaded calibration
operation tracks their slow stretches poorly.
"""

import http.client
import json
import os
import random
import shutil
import subprocess
import time

from . import common, stats, trace
from .common import CALIBRATION_S, RV_FIXTURES, SAMPLE_UNITS

SMALL_HITS = (("gcc", "tiny"), ("bzip", "tiny"), ("gap", "tiny"), ("perl", "tiny"))
LONG_HITS = ("mcf", "crafty", "eon")
MISS_WORKLOADS = (("gcc", "tiny"), ("bzip", "tiny"), ("gap", "tiny"), ("gcc", "default"))
RESTARTS = 11
POLL_S = 0.0005
# Calibration runs between two daemon starts.
CALIBRATION_BURST = 3


class JobFailed(Exception):
    pass


class Daemon:
    """One `hpa serve` process; `ready_s` is spawn to first healthy reply."""

    def __init__(self, journal, log):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(common.hpa_bin()), "serve", "--addr", "127.0.0.1:0", "--jobs", "1",
             "--journal-dir", str(journal)],
            stdout=subprocess.PIPE, stderr=log, text=True)
        line = self.proc.stdout.readline()
        if "listening on " not in line:
            self.kill()
            raise common.BenchError(f"hpa serve did not start: {line.strip()!r}")
        host, port = line.split("listening on ")[1].split()[0].rsplit(":", 1)
        self.host, self.port = host, int(port)
        self.calls = 0
        while True:
            try:
                if self.call("GET", "/health")[0] == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() - t0 > 30:
                self.kill()
                raise common.BenchError("hpa serve never became healthy")
            time.sleep(POLL_S)
        self.ready_s = time.perf_counter() - t0

    def call(self, method, path, body=None):
        self.calls += 1
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"} if body else {})
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        return resp.status, json.loads(data) if data else None

    def stop(self):
        """Shuts down over HTTP, reaps the process and returns its peak
        RSS in MB."""
        self.call("POST", "/shutdown")
        self.proc.stdout.close()
        _, status, usage = _wait4(self.proc, 60)
        if status != 0:
            raise common.BenchError(f"hpa serve exited with status {status}")
        return usage.ru_maxrss / 1024.0

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            _wait4(self.proc, 60)


def _wait4(proc, timeout):
    deadline = time.perf_counter() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return pid, proc.returncode, usage
        if time.perf_counter() > deadline:
            proc.kill()
            deadline += timeout
        time.sleep(0.01)


def request(program, seed):
    """The submit body for one job kind at one seed."""
    kind, what = program
    body = {"schemes": ["base"], "width": 4, "seed": seed}
    if kind == "binary":
        body["binary"] = common.rv_fixture(what).read_bytes().hex()
    else:
        body["workload"], body["scale"] = what
        if body["scale"] == "long":
            body["sampled"] = SAMPLE_UNITS
    return json.dumps(body)


def direct_digest(program):
    """The `stats digest` line of the direct CLI run of a full-detail job."""
    kind, what = program
    if kind == "binary":
        r = common.hpa("sim", str(common.rv_fixture(what)), "--scheme", "base")
    else:
        r = common.hpa("bench", what[0], "--scale", what[1], "--width", "4", "--scheme", "base")
    if not r.ok:
        raise common.BenchError(f"direct run of {program} failed: {r.error_text()}")
    return common.parse_stats(r.stdout)["stats digest"]


def run_job(daemon, body, expect_hit, expected_s=None, tracer=None, poll_s=POLL_S):
    """Submits one job and waits for its result.

    Returns (seconds from submit to result, result cell). Completion is
    seen by polling `/status` every half millisecond from 90% of the kind's
    fastest time so far (from submit, when traced), so the latency
    resolves to about a millisecond.
    """
    t0 = time.perf_counter()
    status, resp = daemon.call("POST", "/submit", body)
    t_sub = time.perf_counter()
    if status != 200:  # 429 (queue full) and 503 (draining) included
        raise JobFailed(f"submit answered {status}: {resp}")
    job, state, cached = resp["job_id"], resp["status"], resp["cached"]
    if expect_hit and not (state == "done" and cached):
        raise JobFailed(f"meant to hit, got status {state} cached {cached}")
    if not expect_hit and cached:
        raise JobFailed("meant to miss, came back cached")
    t_running = t_done = t_sub
    if state != "done":
        if expected_s and tracer is None:
            time.sleep(max(0.0, t0 + 0.9 * expected_s - time.perf_counter()))
        while True:
            _, s = daemon.call("GET", f"/status/{job}")
            now = time.perf_counter()
            if s["status"] == "queued":
                t_running = now
            elif s["status"] != "running":
                t_done = now
                break
            time.sleep(poll_s)
        if s["status"] != "done":
            raise JobFailed(f"job ended {s['status']}: {s.get('error')}")
    t_res0 = time.perf_counter()
    status, result = daemon.call("GET", f"/result/{job}")
    t1 = time.perf_counter()
    if status != 200 or result["status"] != "done":
        raise JobFailed(f"result answered {status}")
    if tracer is not None:
        root = tracer.add("job", t0, t1, job=job)
        tracer.add("serve.submit", t0, t_sub, root, job)
        if t_done > t_sub:
            tracer.add("serve.queue_wait", t_sub, t_running, root, job)
            tracer.add("serve.run", t_running, t_done, root, job)
        tracer.add("serve.result", t_res0, t1, root, job)
    return t1 - t0, result["cells"][0]["result"]


class Trace:
    """The job kinds and what their results must be."""

    def __init__(self, seed):
        self.seed = seed
        self.next_seed = seed << 24
        self.kinds = ([("hit", ("workload", w)) for w in SMALL_HITS]
                      + [("hit_long", ("workload", (k, "long"))) for k in LONG_HITS]
                      + [("miss", ("workload", w)) for w in MISS_WORKLOADS]
                      + [("miss", ("binary", f)) for f in RV_FIXTURES])
        self.expected = {}  # (kind, program) -> stats digest, or the whole Long result

    def body(self, cls, program):
        if cls == "miss":
            # A seed no earlier job in this journal used: a forced miss.
            self.next_seed += 1
            return request(program, self.next_seed)
        return request(program, self.seed)


def populate(daemon, tr):
    """Runs each hit target once (a miss) and pins the expected results:
    full-detail digests come from direct CLI runs; the Long sampled results
    are pinned as the daemon first computed them."""
    for cls, program in tr.kinds:
        if cls != "miss":
            _, cell = run_job(daemon, tr.body(cls, program), expect_hit=False, poll_s=0.02)
            tr.expected[(cls, program)] = cell if cls == "hit_long" else cell["stats_digest"]
    for cls, program in tr.kinds:
        if cls == "miss":
            tr.expected[(cls, program)] = direct_digest(program)
        elif cls == "hit" and tr.expected[(cls, program)] != direct_digest(program):
            raise common.BenchError(f"daemon digest for {program} differs from the direct run")


def loop(daemon, tr, seconds, clock, rng, reps, tally, traced_rounds=False):
    """Closed loop over the job kinds until `seconds` pass, in rounds that
    visit every kind once, in a seeded order. With
    `traced_rounds`, every other round records spans; returns the tracer
    and the per-kind fastest latencies of traced and untraced rounds."""
    tracer = trace.Tracer()
    classes = {}  # traced job id -> its kind
    samples = {"hit": [], "hit_long": [], "miss": []}
    fast = {True: stats.Reps(), False: stats.Reps()}
    committed, correct = {}, True
    deadline = clock() + seconds
    rounds = 0
    kinds = list(tr.kinds)
    while clock() < deadline:
        rng.shuffle(kinds)
        traced = traced_rounds and rounds % 2 == 0
        for cls, program in kinds:
            if clock() >= deadline:
                break
            key = (cls, program)
            expected_s = reps.fastest(key) if key in reps.samples else None
            try:
                seconds_, cell = run_job(daemon, tr.body(cls, program), cls != "miss",
                                         expected_s, tracer if traced else None)
            except JobFailed as e:
                tally.fail(f"{cls} {program[1]}", str(e))
                continue
            if traced:
                classes[tracer.spans[-1][4]] = cls
            want = tr.expected[(cls, program)]
            got = cell if cls == "hit_long" else cell["stats_digest"]
            if got != want:
                correct = False
            if cls == "miss":
                committed[program] = cell["committed"]
            tally.ok()
            reps.add(key, seconds_)
            samples[cls].append(seconds_)
            fast[traced].add(key, seconds_)
        rounds += 1
    return samples, committed, correct, tracer, classes, fast, rounds


def _session(seed, seconds, clock, traced):
    tally, reps, bracket = stats.Tally(), stats.Reps(), stats.Bracketed(CALIBRATION_S)
    tr = Trace(seed)
    work = common.scratch_dir("serve")
    journal = work / "journal"
    log = open(work / "daemon.log", "w")
    daemon = None
    try:
        daemon = Daemon(journal, log)
        populate(daemon, tr)
        peak_rss = daemon.stop()
        before = bracket.burst(common.calibration_times(CALIBRATION_BURST))
        for restart in range(RESTARTS):
            daemon = Daemon(journal, log)
            ready_s = daemon.ready_s
            if restart < RESTARTS - 1:
                peak_rss = max(peak_rss, daemon.stop())
            after = bracket.burst(common.calibration_times(CALIBRATION_BURST))
            bracket.add("setup", ready_s, before, after)
            before = after
        daemon.calls = 0
        t_loop = clock()
        samples, committed, correct, tracer, classes, fast, rounds = loop(
            daemon, tr, seconds, clock, random.Random(seed), reps, tally, traced)
        loop_s = clock() - t_loop
        jobs = sum(len(v) for v in samples.values())
        calls = daemon.calls
        _, health = daemon.call("GET", "/health")
        peak_rss = max(peak_rss, daemon.stop())
        daemon = None
    finally:
        if daemon is not None:
            daemon.kill()
        log.close()
        shutil.rmtree(work, ignore_errors=True)

    kinds = [k for k in reps.keys()]
    miss_kinds = [k for k in kinds if k[0] == "miss"]
    host = reps.total_fastest(kinds)
    miss_host = reps.total_fastest(miss_kinds)
    metrics = {
        "minst_per_s": (sum(committed[k[1]] for k in miss_kinds) / miss_host / 1e6
                        if miss_host else 0.0, "Minst/s"),
        "ops_per_s": (len(kinds) / host if host else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "setup_s": (bracket.quiet_median("setup"), "s"),
    }
    report = {
        "jobs_per_s": (jobs / loop_s, "1/s"),
        "trace_s": (host, "s (sum of fastest repetitions, one job of each kind)"),
        "rounds": (rounds, "count"),
        "spread": reps.spread(),
        "health": health["counters"],
    }
    for cls, xs in samples.items():
        report[f"{cls}_jobs"] = (len(xs), "count")
        if xs:
            report[f"{cls}_p50_ms"] = (stats.median(xs) * 1e3, "ms")
            report[f"{cls}_fastest_ms"] = (
                stats.median([reps.fastest(k) for k in kinds if k[0] == cls]) * 1e3, "ms")
            t = stats.tail(xs)
            if t:
                report[f"{cls}_tail_ms"] = (t[1] * 1e3, f"ms (p{t[0]:g}, n={len(xs)})")
    extra = {"tracer": tracer, "classes": classes, "fast": fast, "calls": calls, "jobs": jobs,
             "health": health}
    return report, metrics, correct, tally, extra


def run(seed, seconds, clock):
    report, metrics, correct, tally, _ = _session(seed, seconds, clock, traced=False)
    return report, metrics, correct, tally


def traced(seed, seconds, clock):
    probe = common.layers("serve-probe", 5, seed, SAMPLE_UNITS)
    report, metrics, correct, tally, extra = _session(seed, seconds, clock, traced=True)
    tracer = extra["tracer"]
    by_name = {}
    for name, a, b, _, job in tracer.spans:
        by_name.setdefault(name, []).append(b - a)
        if name == "serve.submit":
            by_name.setdefault(f"serve.submit.{extra['classes'][job]}", []).append(b - a)
    traced_fast, untraced_fast = extra["fast"][True], extra["fast"][False]
    both = [k for k in traced_fast.keys() if k in untraced_fast.samples]
    overhead = (traced_fast.total_fastest(both) / untraced_fast.total_fastest(both) - 1
                if both else 0.0)
    per_layer = {
        "workloads.build_ms": (1e3 * stats.median([r["build_s"] for r in probe["long"]]), "ms"),
        "serve.cell_key_ms": (1e3 * stats.median([r["cell_key_s"] for r in probe["long"]]), "ms"),
        "serve.submit_ms.small": (_median_ms(by_name.get("serve.submit.hit")), "ms"),
        "serve.submit_ms.long": (_median_ms(by_name.get("serve.submit.hit_long")), "ms"),
        "rv.translate_us": (1e6 * stats.median([r["translate_s"] for r in probe["rv"]]), "us"),
        "serve.queue_wait_ms": (_median_ms(by_name.get("serve.queue_wait")), "ms"),
        "serve.run_ms": (_median_ms(by_name.get("serve.run")), "ms"),
        "serve.result_ms": (_median_ms(by_name.get("serve.result")), "ms"),
        "sdk.calls_per_job": (extra["calls"] / extra["jobs"] if extra["jobs"] else 0.0, "count"),
        "serve.health.cache_hits": (extra["health"]["counters"]["serve_cache_hits"], "count"),
        "serve.health.cache_misses": (extra["health"]["counters"]["serve_cache_misses"], "count"),
        "serve.health.journal_rehydrated":
            (extra["health"]["counters"]["journal_jobs_rehydrated"], "count"),
        "trace.overhead_pct": (100 * overhead, "%"),
        "trace.accounted_pct": (100 * tracer.accounted(("job",)), "%"),
    }
    return report, per_layer, correct, tally, tracer


def _median_ms(xs):
    return 1e3 * stats.median(xs) if xs else 0.0
