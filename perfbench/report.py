"""Run every workload untraced and traced, and print the tables.

    python3 perfbench/report.py --seed 1 --seconds 30

End-to-end metrics come from the untraced run of each workload, the
per-layer table from the traced one; the tracing overhead is traced wall_s
minus untraced wall_s.  Each run is `run.py` in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import E2E, ROOT, WORKLOADS  # noqa: E402


def bench(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, check=False)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    plain = {w: bench(w, args.seed, args.seconds, 0) for w in WORKLOADS}
    traced = {w: bench(w, args.seed, args.seconds, 1) for w in WORKLOADS}

    print(f"end to end (seed {args.seed}, {args.seconds:g} s per run)")
    print(f"{'workload':10}" + "".join(f"{name:>18}" for name in E2E)
          + f"{'attempted':>11}{'failed':>8}{'correct':>9}")
    for w, result in plain.items():
        cells = "".join(f"{result['metrics'][name]['value']:>14.4f} {unit:3}"
                        for name, unit in E2E.items())
        print(f"{w:10}{cells}{result['attempted']:>11}{result['failed']:>8}"
              f"{str(result['correct']).lower():>9}")

    print("\nper layer (traced run, per round of questions)")
    names = list(traced[WORKLOADS[0]]["metrics"])
    print(f"{'metric':48}{'unit':>7}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name in names:
        unit = traced[WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:48}{unit:>7}"
              + "".join(f"{traced[w]['metrics'][name]['value']:>14.6g}" for w in WORKLOADS))

    print("\ntracing overhead (traced wall_s - untraced wall_s)")
    for w in WORKLOADS:
        base = plain[w]["metrics"]["wall_s"]["value"]
        extra = traced[w]["metrics"]["trace.wall_s"]["value"] - base
        print(f"{w:10}{extra:+.3f} s ({extra / base:+.1%})")
    ok = all(r["correct"] for r in list(plain.values()) + list(traced.values()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
