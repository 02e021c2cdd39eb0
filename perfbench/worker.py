"""One workload process: set up, answer the question list in closed loop,
check every answer, report.

Started by `run.py` in a fresh interpreter.  It prints `READY` once set-up
is done (import, input generation, model loading and validation), then one
JSON line with the measurements.  With `--setup-only` it times the
reference kernel after `READY`, prints its mean time and exits.  Run
directly only for debugging:

    python3 perfbench/worker.py --workload pools --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_ROUNDS = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import momix
    import momix.cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(momix.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"momix was imported from {momix.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import reference
    import workloads

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = workloads.Inputs(ROOT, workdir)
        questions = workloads.WORKLOADS[args.workload](args.seed, inputs)
        inputs.load_and_validate()
        print("READY", flush=True)
        if args.setup_only:
            pace = reference.Pace()
            for _ in range(reference.SETUP_SAMPLES):
                pace.sample()
            print(json.dumps({"reference_s": pace.mean_s()}), flush=True)
            return 0
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        result = run_rounds(questions, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other workers may still use it
            os.rmdir(os.path.dirname(workdir))

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, result["rounds"], result["wall_s"],
                                                 import_s, result["scale"])
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl"))
    print(json.dumps(result), flush=True)
    return 0


def run_rounds(questions, seconds):
    """Whole rounds of the question list, one question at a time, each asked
    `reps` times in a row, for about `seconds` (and at least MIN_ROUNDS
    rounds): a round is not started when a median round would end it past
    `seconds`.  Answers are checked between questions, outside the timed
    region; an answer already verified for the same question is not
    checked again.  The reference kernel runs between questions, at most
    every `reference.EVERY_S`.

    A question's latency is its mean over the run, in seconds at reference
    speed (see `reference.py`); `raw` holds the measured figures."""
    import reference
    from checks import CheckError

    latencies = [[] for _ in questions]
    verified = [set() for _ in questions]
    first_answer = [None] * len(questions)
    failures, errors, round_s = 0, [], []
    pace = reference.Pace()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, q in enumerate(questions):
            for _ in range(q.reps):
                pace.tick()
                t0 = time.perf_counter()
                try:
                    raw = q.ask()
                    failed = q.failed(raw)
                except Exception as exc:  # a crash inside momix is a failed question
                    raw, failed = repr(exc), True
                latencies[i].append(time.perf_counter() - t0)
                if failed:
                    failures += 1
                    continue
                key = q.key(raw)
                if first_answer[i] is None:
                    first_answer[i] = key
                elif key != first_answer[i]:
                    errors.append(f"{q.name}: answer differs between rounds")
                if key in verified[i]:
                    continue
                try:
                    q.check(raw)
                    verified[i].add(key)
                except (CheckError, KeyError, TypeError, ValueError) as exc:
                    errors.append(f"{q.name}: {type(exc).__name__}: {exc}")
        round_s.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if len(round_s) >= MIN_ROUNDS and elapsed + statistics.median(round_s) > seconds:
            break
    scale = pace.scale()
    means = [statistics.mean(xs) for xs in latencies]
    return {
        "correct": not errors,
        "errors": errors[:10],
        "rounds": len(round_s),
        "attempted": sum(len(xs) for xs in latencies),
        "failed": failures,
        "scale": scale,
        "wall_s": sum(means) * scale,
        "question_p50_s": statistics.median(means) * scale,
        "questions": {q.name: m * scale for q, m in zip(questions, means)},
        "raw": {"wall_s": sum(means), "question_p50_s": statistics.median(means),
                "reference_s": pace.mean_s(), "reference_samples": len(pace.samples),
                "round_s": round_s},
    }


if __name__ == "__main__":
    sys.exit(main())
