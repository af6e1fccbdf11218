#!/usr/bin/env python3
"""Regenerates ``reference/long_ipc.json``: the full-detail IPC of every
kernel at ``--scale long`` on the 4-wide base machine, the reference the
`sampled-long` workload's ``ipc_err_pct`` is measured against.

Run from a checkout's root after a change to the timing model:

    python3 perfbench/regen_reference.py

It takes several minutes (mcf alone simulates ~100 M instructions in
full detail). The file also pins the stats digest of one full-detail Long
cell, the cheapest one; `sampled-long` re-runs that cell and treats the
reference as stale when the digest differs.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hpabench import common  # noqa: E402

OUT = common.BENCH_DIR / "reference" / "long_ipc.json"


def main():
    common.build()
    kernels = {}
    for name in common.KERNELS:
        r = common.hpa("bench", name, "--scale", "long", "--width", "4", "--scheme", "base")
        if r.ok:
            s = common.parse_stats(r.stdout)
            cycles, committed = int(s["cycles"]), int(s["committed"])
            kernels[name] = {
                "cycles": cycles,
                "committed": committed,
                "ipc": committed / cycles,
                "digest": s["stats digest"],
            }
        else:
            kernels[name] = {"error": r.error_text()}
        print(f"{name}: {kernels[name]} ({r.seconds:.1f}s)", file=sys.stderr, flush=True)
    done = [k for k, v in kernels.items() if "ipc" in v]
    if not done:
        sys.exit("no kernel completed; nothing to pin")
    pinned = min(done, key=lambda k: kernels[k]["cycles"])
    doc = {
        "machine": "4-wide base, --scale long, full detail",
        "generated": time.strftime("%Y-%m-%d"),
        "pinned": {"kernel": pinned, "digest": kernels[pinned]["digest"]},
        "kernels": kernels,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
