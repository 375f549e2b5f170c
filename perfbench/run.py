#!/usr/bin/env python3
"""Builds and runs the MBA-Solver pipeline benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree. The first run configures and builds the
library with the repository's own CMakeLists.txt into .bench_build/mba, then
builds the driver (perfbench/perfbench.cpp) into .bench_build/perfbench;
later runs only rebuild what changed. Build output goes to stderr, so the
last line of stdout is always the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of one timed run. --trace 1 runs
the fixed ledger pass three times: once untraced, then traced twice. It
reports the first traced pass's per-layer metrics plus the tracing overhead
(traced minus untraced pass time), and marks the result incorrect unless
every count and ratio metric repeats exactly in the second traced pass.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

WORKLOADS = ("paper_simplify", "raw_bitblast", "warm_replay", "opaque_synth")

# The seed used while the benchmark was written, and a held-out seed that
# any later claim made with this benchmark must also hold on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# Units of metrics that are exact work counts (or ratios of them) and must
# repeat exactly between two traced passes on one seed. Every other unit is
# a timing.
EXACT_UNITS = ("count", "ratio")

DRIVER_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def sh(cmd):
    # The library's configure step asks git for a revision; keep git from
    # searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                   env=env)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit(f"perfbench: no MBA-Solver source tree at {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    lib = BUILD / "mba"
    if not (lib / "CMakeCache.txt").is_file():
        sh(["cmake", "-S", str(ROOT), "-B", str(lib),
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    sh(["cmake", "--build", str(lib), "--target", "bench_harness",
        "mba_synth", "-j", jobs])
    drv = BUILD / "perfbench"
    sh(["cmake", "-S", str(HERE), "-B", str(drv), f"-DMBA_BUILD={lib}",
        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    sh(["cmake", "--build", str(drv), "-j", jobs])
    return drv / "perfbench"


def drive(exe, args):
    """Runs the driver; echoes its report and returns its result object."""
    proc = subprocess.run([str(exe)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=DRIVER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: driver failed (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    exe = build()
    out = BUILD / "run"
    out.mkdir(parents=True, exist_ok=True)
    common = [f"--workload={opts.workload}", f"--seed={opts.seed}",
              f"--out={out}"]

    if opts.trace == 0:
        result = drive(exe, common + [f"--seconds={opts.seconds}"])
    else:
        ledger = common + ["--mode=ledger"]
        plain = drive(exe, ledger + ["--traced=0"])
        traced = drive(exe, ledger + ["--traced=1"])
        again = drive(exe, ledger + ["--traced=1"])
        metrics = traced["metrics"]
        drifted = [name for name, m in metrics.items()
                   if m["unit"] in EXACT_UNITS and
                   again["metrics"][name]["value"] != m["value"]]
        for name in drifted:
            log(f"perfbench: count {name} differs between traced passes: "
                f"{metrics[name]['value']} vs {again['metrics'][name]['value']}")
        overhead = (metrics.pop("bench.ledger_ms")["value"] -
                    plain["metrics"]["bench.ledger_ms"]["value"])
        metrics["bench.trace_overhead_ms"] = {"value": overhead, "unit": "ms"}
        result = {
            "correct": all(r["correct"] for r in (plain, traced, again))
            and not drifted,
            "attempted": traced["attempted"],
            "failed": traced["failed"],
            "metrics": metrics,
        }
        print(f"  {'bench.trace_overhead_ms':<36} {overhead:>16.6f} ms "
              f"(traced minus untraced ledger pass)")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
