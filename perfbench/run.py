"""Serve-path benchmark entry point.

    python3 perfbench/run.py --workload stream_pulse --seed 1 --seconds 5 --trace 0

Runs the workload in a fresh interpreter (``perfbench/measure.py``)
with single-threaded BLAS set in that child's environment only, prints
every metric by name with its unit, a ``details`` line, and as the last
line one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  Exits non-zero, printing no result,
when the program under test is missing or the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The whole run must end within 180 s; the child gets this long.
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({name: "1" for name in SINGLE_THREAD})
    env["PYTHONHASHSEED"] = "0"  # same set/dict layouts on every run
    cmd = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # Own process group, so a timeout also takes down shard workers.
    child = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"perfbench: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        print(f"perfbench: measurement exited {child.returncode}", file=sys.stderr)
        return child.returncode or 1
    result = json.loads(lines[-1])
    details = result.pop("details")
    for line in lines[:-1]:
        print(line)
    print("details " + json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
