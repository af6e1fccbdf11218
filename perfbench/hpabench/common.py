"""Build the program under test and run it as a user would.

The benchmark lives in ``perfbench/`` of a checkout of the repository and
builds everything from that checkout's sources. All files it writes stay
inside the checkout: build output under ``$CARGO_TARGET_DIR`` (default
``.bench_build``) and scratch state under ``.bench_tmp``.
"""

import json
import os
import shutil
import subprocess
import time
from pathlib import Path

# perfbench/hpabench/common.py -> the checkout root.
ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = ROOT / "perfbench"
SCRATCH = ROOT / ".bench_tmp"

KERNELS = (
    "bzip", "crafty", "eon", "gap", "gcc", "gzip",
    "mcf", "parser", "perl", "twolf", "vortex", "vpr",
)
SCHEMES = (
    "base", "seq-wakeup", "seq-wakeup-static", "tag-elimination",
    "seq-rf", "extra-rf-stage", "crossbar", "combined",
)
# The schemes whose CPI stacks the paper-figure regeneration prints; their
# cells run with counters on (`hpa counters`).
CPI_SCHEMES = ("base", "seq-wakeup", "seq-rf", "combined")
WIDTHS = ("4", "8")
SAMPLE_UNITS = "2000:10000:488000"
RV_FIXTURES = ("quicksort", "matmul", "sieve")
# The calibration operation's time on a quiet host, in seconds: the scale
# of every quiet-host time (see `stats.Bracketed`). The fastest of a few
# hundred runs of `hpa-perfbench-calibrate` on a 2-vCPU x86-64 host.
CALIBRATION_S = 0.007

# Every source the build needs; absent in a directory that holds only the
# benchmark, where the run must fail instead of printing a result.
REQUIRED_SOURCES = ("Cargo.toml", "Cargo.lock", "src/bin/hpa.rs", "crates/serve/Cargo.toml")


class BenchError(Exception):
    """A set-up failure: the run cannot produce a result."""


def target_dir():
    """The cargo target directory: ``$CARGO_TARGET_DIR`` resolved against
    the checkout, or ``.bench_build`` when unset."""
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def hpa_bin():
    return target_dir() / "release" / "hpa"


def layers_bin():
    return target_dir() / "release" / "hpa-perfbench-layers"


def calibrate_bin():
    return target_dir() / "release" / "hpa-perfbench-calibrate"


def rv_fixture(name):
    return ROOT / "crates" / "rv" / "fixtures" / f"{name}.elf"


def build():
    """Builds the `hpa` CLI and the per-layer probe (a no-op when fresh)."""
    missing = [p for p in REQUIRED_SOURCES if not (ROOT / p).is_file()]
    if missing:
        raise BenchError(f"not a checkout of the repository: missing {', '.join(missing)}")
    if shutil.which("cargo") is None:
        raise BenchError("cargo not found on PATH")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for argv in (
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "hpa"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(BENCH_DIR / "layers" / "Cargo.toml")],
    ):
        p = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, check=False)
        if p.returncode != 0:
            raise BenchError(f"`{' '.join(argv)}` failed:\n{p.stdout[-4000:]}")


def scratch_dir(name):
    """A fresh directory under ``.bench_tmp`` for this process."""
    d = SCRATCH / f"{name}-{os.getpid()}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


class Completed:
    """One finished child process: exit code, output, host seconds from
    spawn to reap, and the child's own peak resident set."""

    __slots__ = ("returncode", "stdout", "stderr", "seconds", "maxrss_mb")

    def __init__(self, returncode, stdout, stderr, seconds, maxrss_mb):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr
        self.seconds = seconds
        self.maxrss_mb = maxrss_mb

    @property
    def ok(self):
        return self.returncode == 0

    def error_text(self):
        lines = (self.stderr or self.stdout).strip().splitlines()
        return lines[-1] if lines else f"exit code {self.returncode}"


def run_timed(argv):
    """Runs a short-lived command and times it from spawn to reap.

    The child is reaped with ``wait4`` so its own peak RSS is known. Output
    stays in the pipes until the child exits, which is safe because every
    command timed here prints far less than a pipe holds.
    """
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(p.pid, 0)
    seconds = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    stdout = p.stdout.read().decode()
    stderr = p.stderr.read().decode()
    p.stdout.close()
    p.stderr.close()
    return Completed(p.returncode, stdout, stderr, seconds, usage.ru_maxrss / 1024.0)


def hpa(*args):
    return run_timed([str(hpa_bin()), *args])


def calibration_times(n):
    """Runs the calibration operation `n` times; its times."""
    times = []
    for _ in range(n):
        r = run_timed([str(calibrate_bin())])
        if not r.ok:
            raise BenchError(f"calibration operation failed: {r.error_text()}")
        times.append(r.seconds)
    return times


def parse_stats(text):
    """The `name value` lines `hpa bench` prints, as a dict of strings."""
    out = {}
    for line in text.splitlines():
        for key in ("cycles", "committed", "stats digest", "IPC", "samples",
                    "mean IPC", "detailed insts"):
            if line.startswith(key + " "):
                out.setdefault(key, line[len(key):].strip())
    return out


def layers(*args, timeout=170):
    """Runs the per-layer probe and returns its JSON document."""
    p = subprocess.run([str(layers_bin()), *map(str, args)], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=timeout, check=False)
    if p.returncode != 0:
        raise BenchError(f"layer probe `{' '.join(map(str, args))}` failed: {p.stderr.strip()}")
    return json.loads(p.stdout)
