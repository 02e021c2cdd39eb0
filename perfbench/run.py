"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload pools --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; momix is imported from its `src/`.  With
`--trace 0` the result carries the end-to-end metrics (set-up time, round
wall time, median question latency, peak RSS); with `--trace 1` the
per-layer metrics of a traced run.  Set-up time is the median over
SETUP_PROBES fresh set-up-only processes plus the measured process, each
timed from spawn to its READY line.  Times are in seconds at reference
speed: measured time scaled by the reference kernel's mean time in the
same process (see `reference.py`); the measured figures go to stderr.
Exit code 0 with the JSON line as the last line of output, or non-zero
without it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from reference import REFERENCE_S  # noqa: E402

WORKLOADS = ("pools", "chains", "mixing")
SETUP_PROBES = 4
TIMEOUT_S = 170
E2E = {"setup_s": "s", "wall_s": "s", "question_p50_s": "s", "peak_rss_mb": "MB"}


def worker_env():
    env = dict(os.environ)
    # single-threaded BLAS and a fixed hash seed, so set iteration order
    # (and with it every count) repeats from run to run
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, extra, deadline):
    """Start a worker; return (seconds from spawn to READY, remaining stdout)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + extra, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT,
                            text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return ready, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "momix", "__init__.py")):
        print(f"no momix sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups, raw_setups = [], []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                ready, out = spawn(args, ["--setup-only"], deadline)
                raw_setups.append(ready)
                reference_s = json.loads(out.strip().splitlines()[-1])["reference_s"]
                setups.append(ready * REFERENCE_S / reference_s)
        ready, out = spawn(args, [], deadline)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    raw_setups.append(ready)
    setups.append(ready * result["scale"])
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    raw = result["raw"]
    print(f"{args.workload} seed {args.seed}: {result['rounds']} rounds, "
          f"{result['attempted']} questions, {result['failed']} failed; measured "
          f"setup_s {statistics.median(raw_setups):.4g}, wall_s {raw['wall_s']:.4g}, "
          f"question_p50_s {raw['question_p50_s']:.4g}, reference kernel "
          f"{raw['reference_s'] * 1e3:.3g} ms over {raw['reference_samples']} samples",
          file=sys.stderr)
    if args.trace:
        metrics = result["layers"]
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": result["wall_s"],
                  "question_p50_s": result["question_p50_s"],
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E.items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
